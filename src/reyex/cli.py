"""Command-line front end.

Subcommands: expand | norms | estimate | control | critical | report.
Exit codes: 0 ok, 2 usage error, 3 resource ceiling, 4 numerical failure.
Every emitted file records the hash of the fully materialized run
configuration, so identical configurations produce identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import click
import mpmath

from .control import (
    DEFAULT_BLOWUP_THRESHOLD,
    BracketError,
    classical_bounds,
    export_trajectory_csv,
    export_verdict_json,
    find_critical_R,
    solve_control,
)
from .data import get_datum, physical_reynolds
from .estimators import (
    DEFAULT_G3,
    DEFAULT_K3,
    ConstantsTable,
    EstimatorTables,
    MissingConstantError,
    build_estimator_set,
    default_grid,
    export_csv,
    parse_variant,
    variant_label,
)
from .expansion import (
    DEFAULT_TERM_CEILING,
    CacheError,
    ResourceLimitError,
    cache_load,
    cache_store,
    expand,
)
from .symmetry import find_symmetries
from .timepoly import DEFAULT_EVAL_PRECISION

EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


def _fmt(x):
    return "%.17g" % float(x)


def _manifest_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_json(path, payload, cfg):
    payload = dict(payload)
    payload["run_manifest"] = cfg
    payload["run_manifest_hash"] = _manifest_hash(cfg)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_constants(path):
    if path is None:
        return ConstantsTable()
    with open(path) as fh:
        raw = json.load(fh)

    def intkeys(d):
        return {int(k): float(v) for k, v in d.items()}

    def pairkeys(d):
        out = {}
        for k, v in d.items():
            p, n = k.split(",")
            out[(int(p), int(n))] = float(v)
        return out

    return ConstantsTable(
        K=intkeys(raw.get("K", {"3": DEFAULT_K3})),
        G=intkeys(raw.get("G", {"3": DEFAULT_G3})),
        K_pn=pairkeys(raw.get("K_pn", {})),
        G_pn=pairkeys(raw.get("G_pn", {})),
    )


def _cache_dir(cache, cache_root):
    if os.path.isabs(cache) or cache_root is None:
        return cache
    return os.path.join(cache_root, cache)


def _load_cache(path):
    try:
        return cache_load(path)
    except CacheError as exc:
        raise click.UsageError("cannot load cache %s: %s" % (path, exc))


def _grid_from(points, t_max):
    return default_grid(num=points, t_max=t_max)


@click.group()
@click.option(
    "--cache-root",
    envvar="REYEX_CACHE_ROOT",
    default=None,
    help="Base directory for relative cache paths (env REYEX_CACHE_ROOT).",
)
@click.pass_context
def main(ctx, cache_root):
    """Symbolic Reynolds expansions of Navier-Stokes on the 3-torus with
    a-posteriori existence certification."""
    ctx.ensure_object(dict)
    ctx.obj["cache_root"] = cache_root


@main.command("norms")
@click.option("--datum", "selector", required=True, help="bnw | tg | km | file:PATH")
@click.option("--orders", default="1,3", show_default=True, help="Sobolev orders, comma separated")
@click.option("--precision", default=DEFAULT_EVAL_PRECISION, show_default=True)
def cmd_norms(selector, orders, precision):
    """Print datum norms, scales, classical bounds and marked-mode size."""
    try:
        datum = get_datum(selector)
        order_list = [int(x) for x in orders.split(",") if x.strip()]
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))
    click.echo("datum: %s" % datum.name)
    for m in order_list:
        click.echo("norm_%d = %s" % (m, _fmt(datum.sobolev(m, precision))))
    k = datum.marked_mode
    gamma0 = datum.field.coeff_magnitude(k, 0, precision)
    click.echo("marked mode k = %s" % (k,))
    click.echo("gamma(0) = %s" % _fmt(gamma0))
    click.echo("V_star = %s" % _fmt(datum.V_star(precision)))
    click.echo("L_star = %s" % _fmt(datum.L_star(precision)))
    click.echo("rey_factor = %s" % _fmt(datum.rey_factor(precision)))
    bounds = classical_bounds(datum, precision=precision)
    click.echo("classical R_h1 = %s (Rey %s)" % (_fmt(bounds["R_h1"]), _fmt(bounds["Rey_h1"])))
    click.echo("classical R_h3 = %s (Rey %s)" % (_fmt(bounds["R_h3"]), _fmt(bounds["Rey_h3"])))


@main.command("expand")
@click.option("--datum", "selector", required=True)
@click.option("--order", "N", required=True, type=int)
@click.option("--symmetry/--no-symmetry", default=True, show_default=True)
@click.option("--tails/--no-tails", default=False, show_default=True,
              help="Also compute the residual tail coefficients.")
@click.option("--term-ceiling", default=DEFAULT_TERM_CEILING, show_default=True)
@click.option("--cache", required=True, help="Cache directory to write.")
@click.pass_context
def cmd_expand(ctx, selector, N, symmetry, tails, term_ceiling, cache):
    """Compute the expansion u_0..u_N and store it as a cache directory."""
    try:
        datum = get_datum(selector)
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))
    if N < 0:
        raise click.UsageError("--order must be >= 0")
    path = _cache_dir(cache, ctx.obj["cache_root"])
    cfg = {
        "command": "expand",
        "datum": selector,
        "order": N,
        "symmetry": symmetry,
        "tails": tails,
        "term_ceiling": term_ceiling,
        "cache": path,
    }

    def progress(stats):
        click.echo(
            "order %(order)d: %(nonzero_coefficients)d coefficients, "
            "%(terms)d terms, %(wall_seconds).2fs" % stats
        )

    try:
        exp = expand(
            datum.field,
            N,
            use_symmetry=symmetry,
            datum_id=datum.name,
            term_ceiling=term_ceiling,
            progress=progress,
        )
        if tails:
            from .expansion import residual_tail

            residual_tail(exp)
    except ResourceLimitError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(EXIT_RESOURCE)
    manifest = cache_store(exp, path)
    manifest["run_manifest_hash"] = _manifest_hash(cfg)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    click.echo("cache written to %s (%s)" % (path, manifest["run_manifest_hash"]))


def _common_estimator_args(f):
    f = click.option("--precision", default=DEFAULT_EVAL_PRECISION, show_default=True)(f)
    f = click.option("--t-max", default=20.0, show_default=True)(f)
    f = click.option("--grid-points", default=400, show_default=True)(f)
    f = click.option("--variant", default="rough", show_default=True,
                     help="tautological | rough | intermediate:M")(f)
    f = click.option("--n", "n", default=3, show_default=True, help="Sobolev order")(f)
    f = click.option("--constants", "constants_path", default=None,
                     help="JSON constants table")(f)
    f = click.option("--cache", required=True, help="Expansion cache directory.")(f)
    return f


@main.command("estimate")
@_common_estimator_args
@click.option("--R", "R", required=True, type=float)
@click.option("--output", required=True, help="CSV output path.")
@click.pass_context
def cmd_estimate(ctx, cache, constants_path, n, variant, grid_points, t_max, precision, R, output):
    """Sample the estimators D_n, D_{n+1}, eps_n on the grid and export CSV."""
    path = _cache_dir(cache, ctx.obj["cache_root"])
    exp = _load_cache(path)
    try:
        parse_variant(variant)
        constants = _load_constants(constants_path)
        grid = _grid_from(grid_points, t_max)
        est = build_estimator_set(
            exp, R, n, variant, grid=grid, precision=precision, constants=constants
        )
    except (ValueError, MissingConstantError) as exc:
        raise click.UsageError(str(exc))
    export_csv(est, output)
    click.echo("estimator table written to %s" % output)


@main.command("control")
@_common_estimator_args
@click.option("--R", "R", required=True, type=float)
@click.option("--blowup-threshold", default=DEFAULT_BLOWUP_THRESHOLD, show_default=True)
@click.option("--output-prefix", required=True,
              help="Writes PREFIX.trajectory.csv and PREFIX.verdict.json.")
@click.pass_context
def cmd_control(ctx, cache, constants_path, n, variant, grid_points, t_max, precision, R,
                blowup_threshold, output_prefix):
    """Integrate the control problem for one Reynolds parameter."""
    path = _cache_dir(cache, ctx.obj["cache_root"])
    exp = _load_cache(path)
    cfg = {
        "command": "control", "cache": path, "R": R, "n": n,
        "variant": variant_label(variant), "grid_points": grid_points,
        "t_max": t_max, "precision": precision, "blowup_threshold": blowup_threshold,
        "constants": constants_path,
    }
    try:
        constants = _load_constants(constants_path)
        grid = _grid_from(grid_points, t_max)
        est = build_estimator_set(
            exp, R, n, variant, grid=grid, precision=precision, constants=constants
        )
        traj = solve_control(est, constants, blowup_threshold=blowup_threshold)
    except (MissingConstantError, ValueError) as exc:
        raise click.UsageError(str(exc))
    except RuntimeError as exc:
        click.echo("numerical failure: %s" % exc, err=True)
        sys.exit(EXIT_NUMERICAL)
    export_trajectory_csv(traj, output_prefix + ".trajectory.csv")
    record = {
        "R": traj.R, "n": traj.n, "N": exp.N, "variant": traj.variant,
        "verdict": traj.verdict, "T_c": traj.T_c, "diagnostics": traj.diagnostics,
    }
    _write_json(output_prefix + ".verdict.json", record, cfg)
    click.echo("verdict: %s%s" % (traj.verdict, "" if traj.T_c is None else " T_c=%s" % _fmt(traj.T_c)))


@main.command("critical")
@_common_estimator_args
@click.option("--lo", required=True, type=float)
@click.option("--hi", required=True, type=float)
@click.option("--tol-r", default=0.01, show_default=True)
@click.option("--datum", "selector", default=None,
              help="Datum selector for the physical-Reynolds conversion.")
@click.option("--output", required=True, help="Bracket JSON output path.")
@click.pass_context
def cmd_critical(ctx, cache, constants_path, n, variant, grid_points, t_max, precision,
                 lo, hi, tol_r, selector, output):
    """Bisect the critical Reynolds parameter between --lo and --hi."""
    path = _cache_dir(cache, ctx.obj["cache_root"])
    exp = _load_cache(path)
    cfg = {
        "command": "critical", "cache": path, "n": n, "variant": variant_label(variant),
        "lo": lo, "hi": hi, "tol_r": tol_r, "grid_points": grid_points,
        "t_max": t_max, "precision": precision, "constants": constants_path,
        "datum": selector,
    }
    probe_log = []
    try:
        constants = _load_constants(constants_path)
        grid = _grid_from(grid_points, t_max)
        r_lo, r_hi = find_critical_R(
            exp, n, variant, lo, hi, tol_R=tol_r, constants=constants,
            grid=grid, precision=precision, probe_log=probe_log,
        )
    except BracketError as exc:
        raise click.UsageError(str(exc))
    except (MissingConstantError, ValueError) as exc:
        raise click.UsageError(str(exc))
    except RuntimeError as exc:
        click.echo("numerical failure: %s" % exc, err=True)
        sys.exit(EXIT_NUMERICAL)
    record = {
        "R_lo": r_lo,
        "R_hi": r_hi,
        "N": exp.N,
        "n": n,
        "variant": variant_label(variant),
        "probes": [{"R": r, "verdict": v, "T_c": tc} for r, v, tc in probe_log],
    }
    if selector is not None:
        datum = get_datum(selector)
        record["Rey_lo"] = float(physical_reynolds(datum, r_lo, precision))
        record["Rey_hi"] = float(physical_reynolds(datum, r_hi, precision))
    _write_json(output, record, cfg)
    click.echo("bracket: (%s, %s)" % (_fmt(r_lo), _fmt(r_hi)))


@main.command("report")
@click.option("--run-dir", required=True, help="Directory with cache/, *.csv, *.verdict.json.")
@click.option("--datum", "selector", required=True)
@click.option("--precision", default=DEFAULT_EVAL_PRECISION, show_default=True)
@click.pass_context
def cmd_report(ctx, run_dir, selector, precision):
    """Summarize a run directory and emit the plot-panel CSVs."""
    try:
        datum = get_datum(selector)
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))
    cache_path = os.path.join(run_dir, "cache")
    verdicts = sorted(
        f for f in (os.listdir(run_dir) if os.path.isdir(run_dir) else [])
        if f.endswith(".verdict.json")
    )
    if not os.path.isdir(cache_path) or not verdicts:
        raise click.UsageError(
            "run directory %s must contain cache/ and at least one *.verdict.json" % run_dir
        )
    exp = _load_cache(cache_path)
    with open(os.path.join(run_dir, verdicts[0])) as fh:
        verdict = json.load(fh)
    cfg = {"command": "report", "run_dir": run_dir, "datum": selector, "precision": precision}

    R = verdict["R"]
    k = datum.marked_mode
    grid = default_grid(200)
    gamma_path = os.path.join(run_dir, "gamma.csv")
    with open(gamma_path, "w") as fh:
        fh.write("# datum=%s k=%s R=%.17g N=%d hash=%s\n"
                 % (datum.name, k, R, exp.N, _manifest_hash(cfg)))
        fh.write("t,gamma\n")
        with mpmath.workprec(precision):
            Rf = mpmath.mpf(R)
            for t in grid:
                total = [mpmath.mpc(0)] * 3
                for j, u in enumerate(exp.coeffs):
                    vec = u.eval_coeff(k, t, precision)
                    w = Rf**j
                    total = [a + w * b for a, b in zip(total, vec)]
                mag = mpmath.sqrt(sum(abs(c) ** 2 for c in total))
                gamma = (2 * mpmath.pi) ** mpmath.mpf("1.5") * mag
                fh.write("%.17g,%.17g\n" % (t, float(gamma)))

    bounds = classical_bounds(datum, precision=precision)
    summary = os.path.join(run_dir, "summary.txt")
    with open(summary, "w") as fh:
        fh.write("datum %s, expansion order N=%d, manifest %s\n"
                 % (datum.name, exp.N, _manifest_hash(cfg)))
        fh.write("gamma(0) = %s at k = %s\n"
                 % (_fmt(datum.field.coeff_magnitude(k, 0, precision)), (k,)))
        fh.write("norm_3 = %s\n" % _fmt(datum.sobolev(3, precision)))
        fh.write("classical bounds: R_h3 = %s, R_h1 = %s\n"
                 % (_fmt(bounds["R_h3"]), _fmt(bounds["R_h1"])))
        fh.write("rey_factor = %s\n" % _fmt(bounds["rey_factor"]))
        fh.write("verdict at R=%s: %s" % (_fmt(R), verdict["verdict"]))
        if verdict.get("T_c") is not None:
            fh.write(" (T_c = %s)" % _fmt(verdict["T_c"]))
        fh.write("\n")
    click.echo("report written: %s, %s" % (summary, gamma_path))


@main.command("symmetry")
@click.option("--datum", "selector", required=True)
@click.option("--lattice", default="half", show_default=True,
              type=click.Choice(["half", "quarter"]))
def cmd_symmetry(selector, lattice):
    """Print the symmetry group sizes of a datum."""
    try:
        datum = get_datum(selector)
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))
    sym = find_symmetries(datum.field, lattice=lattice)
    click.echo("|H+| = %d, |H-| = %d" % (len(sym.plus), len(sym.minus)))
    click.echo("reduced: |S+| = %d, |S-| = %d, coincide: %s"
               % (len(sym.reduced_plus), len(sym.reduced_minus),
                  sym.reduced_plus == sym.reduced_minus))


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: expand | norms | estimate | control | critical | report.
Exit codes: 0 ok, 2 usage error, 3 resource ceiling, 4 numerical failure.
The cache manifest, the verdict and bracket JSON files and the report's
files record the hash of the fully materialized run configuration; the
estimator and trajectory CSVs do not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager

import click

from .control import (
    DEFAULT_BLOWUP_THRESHOLD,
    DEFAULT_TOL_R,
    classical_bounds,
    export_trajectory_csv,
    find_critical_R,
    solve_control,
)
from .data import get_datum, mode_amplitude, physical_reynolds
from .estimators import (
    DEFAULT_GRID_POINTS,
    DEFAULT_T_MAX,
    ConstantsTable,
    EstimatorTables,
    MissingConstantError,
    build_estimator_set,
    default_grid,
    export_csv,
    variant_label,
)
from .expansion import (
    DEFAULT_TERM_CEILING,
    CacheError,
    ResourceLimitError,
    cache_load,
    cache_store,
    expand,
    residual_tail,
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


def _read_verdict(path):
    """The record of a verdict file; a usage error unless it is a JSON
    object whose R is a finite number >= 0, verdict a string and T_c null
    or a number."""
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError("cannot read verdict file %s: %s" % (path, exc))

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    R = rec.get("R") if isinstance(rec, dict) else None
    if not (number(R) and (isinstance(R, int) or math.isfinite(R)) and R >= 0
            and isinstance(rec.get("verdict"), str)
            and (rec.get("T_c") is None or number(rec["T_c"]))):
        raise click.UsageError(
            "verdict file %s needs R a finite number >= 0, verdict a string and "
            "T_c null or a number" % path
        )
    return rec


def _load_constants(path):
    """The ConstantsTable of a JSON constants file: an object of sections K
    and G (keyed by order) and G_pn (keyed "p,n"), each an object of
    numbers.  The sections it leaves out keep the table's defaults.
    ValueError for a file of any other shape."""
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

    parsers = {"K": intkeys, "G": intkeys, "G_pn": pairkeys}
    if not (isinstance(raw, dict) and raw.keys() <= parsers.keys()
            and all(isinstance(section, dict) for section in raw.values())):
        raise ValueError("constants file %s is not an object of sections %s, each an object"
                         % (path, ", ".join(parsers)))
    try:
        return ConstantsTable(**{key: parsers[key](section) for key, section in raw.items()})
    except TypeError as exc:
        raise ValueError("malformed constant in %s: %s" % (path, exc)) from exc


def _cache_dir(cache, cache_root):
    if os.path.isabs(cache) or cache_root is None:
        return cache
    return os.path.join(cache_root, cache)


def _load_cache(path):
    try:
        return cache_load(path)
    except CacheError as exc:
        raise click.UsageError("cannot load cache %s: %s" % (path, exc))


def _datum(selector):
    try:
        return get_datum(selector)
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))


def _variant_option(ctx, param, value):
    """Normalizes --variant to its label; an unknown variant is a usage error."""
    try:
        return variant_label(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


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
    datum = _datum(selector)
    try:
        order_list = [int(x) for x in orders.split(",") if x.strip()]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo("datum: %s" % datum.name)
    for m in order_list:
        click.echo("norm_%d = %s" % (m, _fmt(datum.sobolev(m, precision))))
    k = datum.marked_mode
    (gamma0,) = mode_amplitude([datum.field], k, 0, [0], precision)
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
    datum = _datum(selector)
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

    def tail_progress(meta):
        click.echo("tail order %(order)d: %(terms)d terms, %(wall_seconds).2fs" % meta)

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
            residual_tail(exp, term_ceiling, progress=tail_progress)
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
    f = click.option("--t-max", default=DEFAULT_T_MAX, show_default=True)(f)
    f = click.option("--grid-points", default=DEFAULT_GRID_POINTS, show_default=True)(f)
    f = click.option("--variant", default="rough", show_default=True, callback=_variant_option,
                     help="tautological | rough | intermediate:M")(f)
    f = click.option("--n", "n", default=3, show_default=True, help="Sobolev order")(f)
    f = click.option("--constants", "constants_path", default=None,
                     type=click.Path(exists=True, dir_okay=False),
                     help="JSON constants table")(f)
    f = click.option("--cache", required=True, help="Expansion cache directory.")(f)
    return f


@contextmanager
def _probe_errors():
    """Usage errors of a probing command exit 2 (a BracketError is a
    ValueError), residual tails computed for a cache without them that pass
    the default term ceiling exit 3, a failed control integration exits 4."""
    try:
        yield
    except (MissingConstantError, ValueError) as exc:
        raise click.UsageError(str(exc))
    except ResourceLimitError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(EXIT_RESOURCE)
    except RuntimeError as exc:
        click.echo("numerical failure: %s" % exc, err=True)
        sys.exit(EXIT_NUMERICAL)


def _probe_setup(ctx, cache, constants_path, n, grid_points, t_max, precision):
    """The cache path, expansion, constants and EstimatorTables of a probing
    command; the tables hold its grid and precision."""
    path = _cache_dir(cache, ctx.obj["cache_root"])
    exp = _load_cache(path)
    with _probe_errors():
        constants = _load_constants(constants_path)
        tables = EstimatorTables(exp, n, default_grid(grid_points, t_max), precision)
    return path, exp, constants, tables


@main.command("estimate")
@_common_estimator_args
@click.option("--R", "R", required=True, type=float)
@click.option("--output", required=True, help="CSV output path.")
@click.pass_context
def cmd_estimate(ctx, cache, constants_path, n, variant, grid_points, t_max, precision, R, output):
    """Sample the estimators D_n, D_{n+1}, eps_n on the grid and export CSV."""
    _, exp, constants, tables = _probe_setup(
        ctx, cache, constants_path, n, grid_points, t_max, precision
    )
    with _probe_errors():
        est = build_estimator_set(exp, R, n, variant, constants=constants, tables=tables)
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
    path, exp, constants, tables = _probe_setup(
        ctx, cache, constants_path, n, grid_points, t_max, precision
    )
    cfg = {
        "command": "control", "cache": path, "R": R, "n": n,
        "variant": variant, "grid_points": grid_points,
        "t_max": t_max, "precision": precision, "blowup_threshold": blowup_threshold,
        "constants": constants_path,
    }
    with _probe_errors():
        est = build_estimator_set(exp, R, n, variant, constants=constants, tables=tables)
        traj = solve_control(est, constants, blowup_threshold=blowup_threshold)
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
@click.option("--tol-r", default=DEFAULT_TOL_R, show_default=True)
@click.option("--datum", "selector", default=None,
              help="Datum selector for the physical-Reynolds conversion.")
@click.option("--output", required=True, help="Bracket JSON output path.")
@click.pass_context
def cmd_critical(ctx, cache, constants_path, n, variant, grid_points, t_max, precision,
                 lo, hi, tol_r, selector, output):
    """Bisect the critical Reynolds parameter between --lo and --hi."""
    path, exp, constants, tables = _probe_setup(
        ctx, cache, constants_path, n, grid_points, t_max, precision
    )
    datum = None if selector is None else _datum(selector)
    cfg = {
        "command": "critical", "cache": path, "n": n, "variant": variant,
        "lo": lo, "hi": hi, "tol_r": tol_r, "grid_points": grid_points,
        "t_max": t_max, "precision": precision, "constants": constants_path,
        "datum": selector,
    }
    probe_log = []
    with _probe_errors():
        r_lo, r_hi = find_critical_R(
            exp, n, variant, lo, hi, tol_R=tol_r, constants=constants,
            tables=tables, probe_log=probe_log,
        )
    # the bisection stops early only at an Inconclusive probe, its last
    last_R, last_verdict, _ = probe_log[-1]
    stopped_at = last_R if last_verdict == "Inconclusive" else None
    record = {
        "R_lo": r_lo,
        "R_hi": r_hi,
        "N": exp.N,
        "n": n,
        "variant": variant,
        "tol_met": r_hi - r_lo <= tol_r,
        "stopped_at": stopped_at,
        "probes": [{"R": r, "verdict": v, "T_c": tc} for r, v, tc in probe_log],
        "telemetry": tables.stats,
    }
    if datum is not None:
        record["Rey_lo"] = float(physical_reynolds(datum, r_lo, precision))
        record["Rey_hi"] = float(physical_reynolds(datum, r_hi, precision))
    _write_json(output, record, cfg)
    click.echo("bracket: (%s, %s)" % (_fmt(r_lo), _fmt(r_hi)))
    if not record["tol_met"]:
        click.echo(
            "tolerance not met: width %s > --tol-r %s; stopped at the Inconclusive probe R = %s"
            % (_fmt(r_hi - r_lo), _fmt(tol_r), _fmt(stopped_at))
        )


@main.command("report")
@click.option("--run-dir", required=True, help="Directory with cache/, *.csv, *.verdict.json.")
@click.option("--datum", "selector", required=True)
@click.option("--precision", default=DEFAULT_EVAL_PRECISION, show_default=True)
@click.pass_context
def cmd_report(ctx, run_dir, selector, precision):
    """Summarize a run directory and emit the plot-panel CSVs."""
    datum = _datum(selector)
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
    verdict = _read_verdict(os.path.join(run_dir, verdicts[0]))
    cfg = {"command": "report", "run_dir": run_dir, "datum": selector, "precision": precision}

    R = verdict["R"]
    k = datum.marked_mode
    grid = default_grid(200)
    gamma_path = os.path.join(run_dir, "gamma.csv")
    with open(gamma_path, "w") as fh:
        fh.write("# datum=%s k=%s R=%.17g N=%d hash=%s\n"
                 % (datum.name, k, R, exp.N, _manifest_hash(cfg)))
        fh.write("t,gamma\n")
        for t, gamma in zip(grid, mode_amplitude(exp.coeffs, k, R, grid, precision)):
            fh.write("%.17g,%.17g\n" % (t, float(gamma)))

    bounds = classical_bounds(datum, precision=precision)
    (gamma0,) = mode_amplitude([datum.field], k, 0, [0], precision)
    summary = os.path.join(run_dir, "summary.txt")
    with open(summary, "w") as fh:
        fh.write("datum %s, expansion order N=%d, manifest %s\n"
                 % (datum.name, exp.N, _manifest_hash(cfg)))
        fh.write("gamma(0) = %s at k = %s\n" % (_fmt(gamma0), (k,)))
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
    datum = _datum(selector)
    sym = find_symmetries(datum.field, lattice=lattice)
    click.echo("|H+| = %d, |H-| = %d" % (len(sym.plus), len(sym.minus)))
    click.echo("reduced: |S+| = %d, |S-| = %d, coincide: %s"
               % (len(sym.reduced_plus), len(sym.reduced_minus),
                  sym.reduced_plus == sym.reduced_minus))


if __name__ == "__main__":
    main()

"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 solver non-convergence,
3 infeasible dispatch, 64 usage error. All angle fields in files and on
the terminal are degrees unless ``--radians`` is given; outputs are
written atomically (temp file plus rename) and are byte-reproducible
for a fixed input, seed, and package version. ``solve`` and
``linearize`` switch to a flat CSV table when the output name ends in
``.csv``; everything else is JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Mapping

import click
import numpy as np

from . import __version__
from .exact import NonConvergenceError, solve_exact
from .experiments import (
    build_scenario_network,
    load_scenario,
    monte_carlo,
    report_to_dict,
    run_sequential_switching,
    run_switch_scenario,
)
from .feeders import apply_modifications, dump_feeder, load_feeder
from .linear import solve_linear
from .model import Network, NetworkError
from .opf import DispatchConvergenceError, InfeasibleError, build_opf, solve_opf

# Overrides may tighten solver tolerances but never loosen them past this.
TOLERANCE_CEILING = 1.0e-6


def _write_atomic(path: str | Path, text: str) -> None:
    """Write text so readers never observe a partial file."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(doc: Mapping[str, Any], out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_atomic(out, text)


def _csv_text(fields: list[str], rows: list[Mapping[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _wants_csv(output: str | None) -> bool:
    return output is not None and output.lower().endswith(".csv")


def _load_network(path: str) -> Network:
    """Read either a bare feeder document or a two-feeder scenario, parsing
    the file once."""
    with open(path) as handle:
        doc = json.load(handle)
    if isinstance(doc, Mapping) and "feeders" in doc:
        doc["_dir"] = str(Path(path).resolve().parent)
        return build_scenario_network(doc)
    return load_feeder(path, doc)


def _load_dispatch(path: str | None) -> dict[tuple[str, str], complex] | None:
    if path is None:
        return None
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, Mapping):
        raise NetworkError("dispatch file must be an object of 'node.phase': [p, q]")
    out: dict[tuple[str, str], complex] = {}
    for key, val in doc.items():
        node, _, phase = key.rpartition(".")
        if not node or phase not in ("a", "b", "c"):
            raise NetworkError(f"dispatch key {key!r} is not 'node.phase'")
        if not (isinstance(val, list) and len(val) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                for x in val)):
            raise NetworkError(f"dispatch {key!r}: expected [p, q] finite numbers, got {val!r}")
        out[(node, phase)] = complex(val[0], val[1])
    return out


def _angle(rad: float, radians: bool) -> float:
    return rad if radians else math.degrees(rad)


def _check_tol(ctx: click.Context, param: click.Parameter, value: float | None):
    if value is not None and value > TOLERANCE_CEILING:
        raise click.BadParameter(
            f"tolerance {value:g} looser than the {TOLERANCE_CEILING:g} ceiling"
        )
    if value is not None and not value > 0.0:
        raise click.BadParameter(f"tolerance {value:g} must be a number above 0")
    return value


def _check_finite(ctx: click.Context, param: click.Parameter, value: float):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value:g} is not a finite number")
    return value


def _write_result(net: Network, output: str | None, radians: bool, head: Mapping[str, Any],
                  voltages: Mapping[tuple[str, str], tuple[float, float]],
                  flows: Mapping[str, tuple[np.ndarray, np.ndarray]],
                  vvc_q: Mapping[tuple[str, str], float],
                  e: Mapping[tuple[str, str], float] | None = None) -> None:
    """Write a power-flow result as its JSON document, or as the flat CSV
    table when ``output`` names a .csv file.

    ``voltages`` maps each channel to its magnitude and angle in radians,
    ``flows`` each closed line to its per-phase P and Q, and ``head`` holds
    the document's solver fields. The linear model's squared magnitudes
    ``e`` add the table's ``e_pu2`` column.
    """
    unit = "rad" if radians else "deg"
    volts = [(n, p, mag, _angle(angle, radians))
             for (n, p), (mag, angle) in sorted(voltages.items())]
    lines = {name: [(ph, float(p_val), float(q_val))
                    for ph, p_val, q_val in zip(net.line_map[name].phases, *pq)]
             for name, pq in sorted(flows.items())}
    if _wants_csv(output):
        angle_col = f"angle_{unit}"
        fields = ["node", "phase", "mag_pu", angle_col, "line", "p_pu", "q_pu"]
        rows: list[dict[str, Any]] = [
            {"node": n, "phase": p, "mag_pu": repr(mag), angle_col: repr(angle)}
            for n, p, mag, angle in volts]
        if e is not None:
            fields.insert(2, "e_pu2")
            for row in rows:
                row["e_pu2"] = repr(e[(row["node"], row["phase"])])
        rows += [{"line": name, "phase": ph, "p_pu": repr(p_val), "q_pu": repr(q_val)}
                 for name, phases in lines.items() for ph, p_val, q_val in phases]
        _write_atomic(output, _csv_text(fields, rows))
        click.echo(f"wrote {output}")
        return
    _emit({
        "network": net.name,
        **head,
        "angle_unit": unit,
        "voltages": {f"{n}.{p}": {"mag": mag, "angle": angle} for n, p, mag, angle in volts},
        "line_flows": {name: {ph: [p_val, q_val] for ph, p_val, q_val in phases}
                       for name, phases in lines.items()},
        "vvc_q": {f"{n}.{p}": float(q) for (n, p), q in sorted(vvc_q.items())},
    }, output)


def _fail(kind: str, detail: str) -> None:
    click.echo(json.dumps({"error": kind, "detail": detail}), err=True)


@click.group()
@click.version_option(__version__, prog_name="phasorflow")
def cli() -> None:
    """Model unbalanced feeders, solve power flow, and dispatch DER."""


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
def validate(network_file: str) -> None:
    """Check a feeder or scenario document and print a summary."""
    net = _load_network(network_file)
    channels = sum(len(n.phases) for n in net.nodes)
    click.echo(
        f"ok: {net.name or Path(network_file).stem}: "
        f"{len(net.nodes)} nodes, {len(net.lines)} lines, {channels} channels, "
        f"{len(net.loads)} loads, {len(net.der_units)} der, {len(net.vvc_units)} vvc"
    )


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--script", required=True, type=click.Path(exists=True, dir_okay=False),
              help="JSON list of modification steps (or object with a 'mods' list).")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def modify(network_file: str, script: str, output: str) -> None:
    """Apply a modification script to a feeder and write the result."""
    net = load_feeder(network_file)
    with open(script) as handle:
        doc = json.load(handle)
    mods = doc["mods"] if isinstance(doc, Mapping) else doc
    dump_feeder(apply_modifications(net, mods), output)
    click.echo(f"wrote {output}")


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write the result here instead of stdout; a .csv name selects the flat table.")
@click.option("--dispatch", "dispatch_file", type=click.Path(exists=True, dir_okay=False),
              help="JSON of controllable injections, {'node.phase': [p, q]}, consumption-positive.")
@click.option("--tol", type=float, default=None, callback=_check_tol,
              help="Newton convergence tolerance (at most 1e-6; default 1e-10).")
@click.option("--max-iter", type=click.IntRange(min=1), default=None, help="Newton iteration cap.")
@click.option("--radians", is_flag=True, help="Emit angles in radians instead of degrees.")
def solve(network_file: str, output: str | None, dispatch_file: str | None,
          tol: float | None, max_iter: int | None, radians: bool) -> None:
    """Solve exact power flow and report the operating point."""
    net = _load_network(network_file)
    kwargs: dict[str, Any] = {}
    if tol is not None:
        kwargs["tol"] = tol
    if max_iter is not None:
        kwargs["max_iter"] = max_iter
    sol = solve_exact(net, dispatch=_load_dispatch(dispatch_file), **kwargs)
    _write_result(net, output, radians, {"iterations": sol.iterations,
                                         "residual_norm": sol.residual_norm},
                  {ch: (abs(v), float(np.angle(v))) for ch, v in sol.V.items()},
                  {name: (s.real, s.imag) for name, s in sol.S_line.items()}, sol.vvc_q)


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write the result here instead of stdout; a .csv name selects the flat table.")
@click.option("--dispatch", "dispatch_file", type=click.Path(exists=True, dir_okay=False),
              help="JSON of controllable injections, {'node.phase': [p, q]}, consumption-positive.")
@click.option("--radians", is_flag=True, help="Emit angles in radians instead of degrees.")
def linearize(network_file: str, output: str | None, dispatch_file: str | None,
              radians: bool) -> None:
    """Solve the linearized power flow and report its state."""
    net = _load_network(network_file)
    sol = solve_linear(net, dispatch=_load_dispatch(dispatch_file))
    low = min(sol.E, key=sol.E.__getitem__)
    if sol.E[low] < 0.0:
        raise ValueError(f"the linear model gives {low[0]}.{low[1]} a negative squared "
                         f"magnitude {sol.E[low]:.6g}: no voltage magnitude exists there")
    _write_result(net, output, radians, {"residual_norm": sol.residual_norm},
                  {ch: (math.sqrt(e), sol.theta[ch]) for ch, e in sol.E.items()},
                  {name: (sol.P[name], sol.Q[name]) for name in sol.P}, sol.vvc_q, e=sol.E)


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--targets", required=True, help="Switch terminals to track, as NODE1:NODE2.")
@click.option("--rho-e", type=float, default=1.0, show_default=True,
              help="Weight on squared-magnitude tracking.")
@click.option("--rho-theta", type=float, default=1.0, show_default=True,
              help="Weight on angle tracking.")
@click.option("--rho-w", type=float, default=1.0, show_default=True,
              help="Weight on dispatch effort.")
@click.option("--penalty", type=click.FloatRange(min_open=True, min=0.0), default=1.0,
              show_default=True, callback=_check_finite,
              help="Starting splitting penalty; the solver rebalances it as it runs.")
@click.option("--tol", type=float, default=None, callback=_check_tol,
              help="Solver residual tolerance (at most 1e-6; default 1e-9).")
@click.option("--max-iter", type=click.IntRange(min=1), default=None, help="Solver iteration cap.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write JSON here instead of stdout.")
def opf(scenario_file: str, targets: str, rho_e: float, rho_theta: float, rho_w: float,
        penalty: float, tol: float | None, max_iter: int | None, output: str | None) -> None:
    """Dispatch DER to align the voltage phasors at two nodes."""
    node1, sep, node2 = targets.partition(":")
    if not sep or not node1 or not node2:
        raise click.BadParameter("--targets must be NODE1:NODE2")
    net = _load_network(scenario_file)
    problem = build_opf(net, [(node1, node2)],
                        {"magnitude": rho_e, "angle": rho_theta, "effort": rho_w})
    kwargs: dict[str, Any] = {"penalty": penalty}
    if tol is not None:
        kwargs["tol"] = tol
    if max_iter is not None:
        kwargs["max_iter"] = max_iter
    result = solve_opf(problem, **kwargs)
    doc = {
        "network": net.name,
        "targets": [node1, node2],
        "weights": dict(problem.weights),
        "objective": result.objective_value,
        "terms": {"magnitude": result.term_values[0],
                  "angle": result.term_values[1],
                  "effort": result.term_values[2]},
        "dispatch": {f"{n}.{p}": [w.real, w.imag] for (n, p), w in sorted(result.w.items())},
        "iterations": result.solver_stats["iterations"],
        "primal_residual": result.solver_stats["primal_residual"],
        "dual_residual": result.solver_stats["dual_residual"],
    }
    _emit(doc, output)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.BadParameter("--grid must be LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise click.BadParameter("--grid needs finite LO, HI and STEP")
    if step <= 0 or hi < lo:
        raise click.BadParameter("--grid needs STEP > 0 and HI >= LO")
    if not math.isfinite(span := (hi - lo) / step):
        raise click.BadParameter(f"--grid {text} spans {span:g} steps")
    count = int(round(span))
    points = [round(lo + k * step, 12) for k in range(count + 1)]
    if points[-1] > hi + 1e-12:
        points.pop()
    return points


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", default="0:0.15:0.01", show_default=True,
              help="Load-cap sweep LO:HI:STEP, same axis for real and reactive caps.")
@click.option("--per-cell", type=click.IntRange(min=1), default=100, show_default=True,
              help="Random scenarios per grid cell.")
@click.option("--seed", type=int, default=0, show_default=True, help="Base RNG seed.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Worker processes; unset or 1 runs serially in this process.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False),
              help="CSV file for the error records.")
def montecarlo(network_file: str, grid: str, per_cell: int, seed: int,
               workers: int | None, output: str) -> None:
    """Sweep random loads and record linear-model error envelopes."""
    net = _load_network(network_file)
    records = monte_carlo(net, _parse_grid(grid), scenarios_per_cell=per_cell,
                          seed=seed, workers=workers)
    fields = ["dr", "di", "scenario_index", "eps_mag", "eps_angle",
              "eps_power", "substation_power", "converged"]
    rows: list[dict[str, Any]] = []
    for rec in records:
        rows.append({
            "dr": repr(rec.dr), "di": repr(rec.di),
            "scenario_index": rec.scenario_index,
            "eps_mag": repr(rec.eps_mag), "eps_angle": repr(rec.eps_angle),
            "eps_power": repr(rec.eps_power),
            "substation_power": repr(rec.substation_power),
            "converged": int(rec.converged),
        })
    _write_atomic(output, _csv_text(fields, rows))
    click.echo(f"wrote {len(rows)} records to {output}")


@cli.command()
@click.version_option(__version__, prog_name="phasorflow")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--sequential", is_flag=True,
              help="Run every switching action in order, closing each switch.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write JSON here instead of stdout.")
def scenario(scenario_file: str, sequential: bool, output: str | None) -> None:
    """Evaluate a two-feeder switching scenario across its control cases."""
    spec = load_scenario(scenario_file)
    if sequential:
        reports = run_sequential_switching(spec)
        doc: Any = {"scenario": spec.get("name", ""),
                    "actions": [report_to_dict(r) for r in reports]}
    else:
        report = run_switch_scenario(spec)
        doc = {"scenario": spec.get("name", ""), "actions": [report_to_dict(report)]}
    _emit(doc, output)


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping failures onto documented exit codes."""
    try:
        cli.main(args=argv, prog_name="phasorflow", standalone_mode=False)
    except click.exceptions.Exit as exc:  # --help / --version
        return int(exc.exit_code)
    except click.UsageError as exc:
        _fail("usage", exc.format_message())
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        return 64
    except click.Abort:
        return 64
    except NonConvergenceError as exc:
        _fail("non-convergence", str(exc))
        return 2
    except DispatchConvergenceError as exc:
        _fail("non-convergence", str(exc))
        return 2
    except InfeasibleError as exc:
        _fail("infeasible", str(exc))
        return 3
    except (NetworkError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(type(exc).__name__, str(exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

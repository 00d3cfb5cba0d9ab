"""Correctness gate: checks each op's output file outside the timed region.

Every ``check_*`` function returns a list of problems; an empty list
passes. Two kinds of reference are used:

- stored references under ``refs/``: this package's own outputs, kept
  with the benchmark. Every scenario op is compared with them; mc13 and
  pf compare their fixed-input warm-up ops with them. Regenerate with

      python3 perfbench/gate.py --write-refs

- per-op references for the seeded mc13 and pf inputs, recomputed with
  the library after the op has run.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"
# Stored references allow for a correct solver that stops at another
# iterate within its residual tolerance; per-op references are exact.
STORED_TOL = 1e-6
PF_TOL = 1e-9
KCL_TOL = 1e-8
MC_TOL = 1e-9

# Scenario fields compared against the references. Iteration counts and
# residuals are left out: a faster solver legitimately changes them.
SCENARIO_FIELDS = ("terminal_1", "terminal_2", "dispatch", "closed_flow")


def _diff(got: dict, want: dict, tol: float, what: str) -> list[str]:
    if got.keys() != want.keys():
        missing = sorted(map(str, want.keys() - got.keys()))[:3]
        extra = sorted(map(str, got.keys() - want.keys()))[:3]
        return [f"{what}: keys differ (missing {missing}, extra {extra})"]
    for key, w in want.items():
        g = got[key]
        err = max(abs(a - b) for a, b in zip(g, w))
        if not err <= tol:  # also catches NaN
            return [f"{what}: {key} is {g}, reference {w}"]
    return []


# -- scenario13 / seq37 ----------------------------------------------------

def scenario_fields(doc: dict) -> dict[str, list[float]]:
    """Flatten the compared fields of a ``scenario`` output document."""
    out = {}
    for a, action in enumerate(doc["actions"]):
        for case in action["cases"]:
            for field in SCENARIO_FIELDS:
                for key, val in case[field].items():
                    out[f"{a}/{case['case']}/{field}/{key}"] = [float(v) for v in val]
    return out


def check_scenario(path: str, reference: dict) -> list[str]:
    try:
        got = scenario_fields(json.loads(Path(path).read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return _diff(got, reference, STORED_TOL, "scenario")


def load_reference(workload: str) -> dict:
    return json.loads((REFS / f"{workload}.json").read_text())


# -- pf --------------------------------------------------------------------

FEEDERS = ("ieee13", "ieee37")
PF_SCALE = (0.6, 1.25)
PF_REF_FACTOR = 1.1  # load factor of the stored pf references


def write_pf_doc(feeder_path: Path, factor: float, out: Path) -> None:
    """A feeder document with every load scaled by ``factor``."""
    base = json.loads(Path(feeder_path).read_text())
    doc = dict(base, name=f"{base['name']}-x{factor:.6f}")
    doc["loads"] = [dict(ld, re=ld["re"] * factor, im=ld["im"] * factor)
                    for ld in base["loads"]]
    Path(out).write_text(json.dumps(doc, indent=1))


class PfReference:
    """Library solutions of one feeder document, for checking CLI output."""

    def __init__(self, path: str) -> None:
        from phasorflow import kcl_residual, load_feeder, solve_exact, solve_linear

        net = load_feeder(path)
        exact = solve_exact(net)
        lin = solve_linear(net)
        self.kcl = kcl_residual(net, exact)
        phases = {ln.name: ln.phases for ln in net.lines}
        self.solve = {
            ("V",) + ch: [abs(v), math.degrees(float(np.angle(v)))] for ch, v in exact.V.items()}
        self.solve.update({
            ("S", name, ph): [float(s.real), float(s.imag)]
            for name, arr in exact.S_line.items() for ph, s in zip(phases[name], arr)})
        self.linearize = {
            ("V",) + ch: [math.sqrt(e), math.degrees(float(lin.theta[ch]))]
            for ch, e in lin.E.items()}
        self.linearize.update({
            ("S", name, ph): [float(p), float(q)]
            for name in lin.P for ph, p, q in zip(phases[name], lin.P[name], lin.Q[name])})


def pf_fields(path: str) -> dict[tuple, list[float]]:
    """Voltages (magnitude, degrees) and line flows from a solve/linearize output."""
    out: dict[tuple, list[float]] = {}
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["node"]:
                    out[("V", row["node"], row["phase"])] = [
                        float(row["mag_pu"]), float(row["angle_deg"])]
                else:
                    out[("S", row["line"], row["phase"])] = [
                        float(row["p_pu"]), float(row["q_pu"])]
        return out
    doc = json.loads(Path(path).read_text())
    if doc["angle_unit"] != "deg":
        raise ValueError(f"angle unit {doc['angle_unit']!r}")
    for key, v in doc["voltages"].items():
        node, _, phase = key.rpartition(".")
        out[("V", node, phase)] = [float(v["mag"]), float(v["angle"])]
    for name, flows in doc["line_flows"].items():
        for ph, (p, q) in flows.items():
            out[("S", name, ph)] = [float(p), float(q)]
    return out


def check_pf(command: str, path: str, ref: PfReference) -> list[str]:
    problems = []
    if command == "solve" and not ref.kcl <= KCL_TOL:
        problems.append(f"kcl_residual {ref.kcl:.3e} > {KCL_TOL:g}")
    try:
        got = pf_fields(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    want = ref.solve if command == "solve" else ref.linearize
    return problems + _diff(got, want, PF_TOL, command)


def check_pf_stored(feeder: str, command: str, path: str) -> list[str]:
    """An output for the ``PF_REF_FACTOR`` document against ``refs/pf.json``."""
    try:
        got = {"/".join(k): v for k, v in pf_fields(path).items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return _diff(got, load_reference("pf")[feeder][command], STORED_TOL,
                 f"{feeder} {command} (stored)")


# -- mc13 ------------------------------------------------------------------

# The fixed montecarlo call of the stored mc13 reference.
MC_REF_ARGS = ["--grid", "0:0.15:0.075", "--per-cell", "2", "--seed", "7"]


def mc_records(path: str) -> dict[tuple[float, float, int], dict]:
    with open(path, newline="") as fh:
        return {(float(r["dr"]), float(r["di"]), int(r["scenario_index"])): r
                for r in csv.DictReader(fh)}


def mc_eps(row: dict) -> list[float]:
    return [float(row[k]) for k in ("eps_mag", "eps_angle", "eps_power")]


def mc_draw_errors(base, grid: list[float], i: int, j: int, seed: int,
                   s_idx: int) -> tuple[float, float, float]:
    """Rebuild draw ``s_idx`` of cell (i, j) from its named substream and
    re-solve it: the documented Monte Carlo sampling, independently of the
    sweep's own loop."""
    from phasorflow import LoadSpec, error_metrics, solve_exact, solve_linear
    from phasorflow.experiments import MC_BETA_S, MC_BETA_Z

    channels = list(dict.fromkeys(
        (ld.node, ld.phase) for ld in base.loads if ld.demand != 0))
    rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
    for _ in range(s_idx + 1):
        re = rng.uniform(0.0, grid[i], len(channels))
        im = rng.uniform(0.0, grid[j], len(channels))
    loads = tuple(LoadSpec(n, p, complex(re[m], im[m]), MC_BETA_S, MC_BETA_Z)
                  for m, (n, p) in enumerate(channels))
    trial = replace(base, loads=loads, der_units=(), vvc_units=())
    return error_metrics(solve_exact(trial), solve_linear(trial))


def check_mc(path: str, base, grid: list[float], per_cell: int, seed: int,
             samples: list[int]) -> list[str]:
    """Record count, then one re-solved draw per cell (``samples[cell]``)."""
    try:
        rows = mc_records(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    expected = len(grid) ** 2 * per_cell
    if len(rows) != expected:
        return [f"{len(rows)} distinct records, expected {expected}"]
    for i, dr in enumerate(grid):
        for j, di in enumerate(grid):
            s_idx = samples[i * len(grid) + j]
            row = rows.get((dr, di, s_idx))
            if row is None:
                return [f"no record for cell ({dr}, {di}) draw {s_idx}"]
            want = mc_draw_errors(base, grid, i, j, seed, s_idx)
            problems = _diff({"eps": mc_eps(row)}, {"eps": want}, MC_TOL,
                             f"cell ({dr}, {di}) draw {s_idx}")
            if problems:
                return problems
    return []


def check_mc_stored(path: str) -> list[str]:
    """The output of the ``MC_REF_ARGS`` call against ``refs/mc13.json``."""
    try:
        got = {"/".join(map(str, k)): mc_eps(r) for k, r in mc_records(path).items()}
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    return _diff(got, load_reference("mc13"), STORED_TOL, "montecarlo (stored)")


def _dump(name: str, fields: dict) -> None:
    (REFS / f"{name}.json").write_text(json.dumps(fields, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS / f'{name}.json'}")


def write_refs(data_dir: Path, out_dir: Path) -> None:
    from phasorflow.cli import main

    out = out_dir / "mc13.csv"
    if main(["montecarlo", str(data_dir / "ieee13.json"), *MC_REF_ARGS, "-o", str(out)]) != 0:
        raise SystemExit("mc13: montecarlo command failed")
    _dump("mc13", {"/".join(map(str, k)): mc_eps(r) for k, r in mc_records(str(out)).items()})
    out.unlink()

    pf = {}
    for feeder in FEEDERS:
        doc = out_dir / f"{feeder}-ref.json"
        write_pf_doc(data_dir / f"{feeder}.json", PF_REF_FACTOR, doc)
        pf[feeder] = {}
        for command in ("solve", "linearize"):
            out = out_dir / "pf.json"
            if main([command, str(doc), "-o", str(out)]) != 0:
                raise SystemExit(f"pf: {command} {feeder} failed")
            pf[feeder][command] = {"/".join(k): v for k, v in pf_fields(str(out)).items()}
            out.unlink()
        doc.unlink()
    _dump("pf", pf)

    for workload, argv in (("scenario13", ["scenario", str(data_dir / "ieee13_dual.json")]),
                           ("seq37", ["scenario", str(data_dir / "ieee37_dual.json"),
                                      "--sequential"])):
        out = out_dir / f"{workload}.out.json"
        if main(argv + ["-o", str(out)]) != 0:
            raise SystemExit(f"{workload}: scenario command failed")
        _dump(workload, scenario_fields(json.loads(out.read_text())))
        out.unlink()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-refs"]:
        raise SystemExit("usage: python3 perfbench/gate.py --write-refs")
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    write_refs(root / "src" / "phasorflow" / "data", scratch)

"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that

- every workload runs with a tiny length, untraced and traced, and prints
  every metric BENCHMARK.json names, with its unit, and no other;
- the correctness gate passes true outputs and counts deliberately
  corrupted ones (one per workload kind, against both the per-op and the
  stored references) as failed;
- run.py refuses, without a result line, a directory that holds only the
  benchmark and not the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for wl in SPEC["workloads"]:
            cmd = SPEC["command"] + ["--workload", wl["name"], "--seed", "7",
                                     "--seconds", "0.1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, (cmd, proc.stderr)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            assert got == want, (wl["name"], trace, got)
            table = {line.split()[0]: line.split() for line in proc.stdout.splitlines()
                     if line.startswith("  ")}
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                assert m["unit"] in table[name], f"{name} not in the table with its unit"
            print(f"ok  {wl['name']} trace={trace}: {len(got)} metrics")


def corrupt_json(path: Path, by: float) -> None:
    """Nudge the first voltage magnitude or scenario terminal value."""
    doc = json.loads(path.read_text())
    if "voltages" in doc:
        first = next(iter(doc["voltages"].values()))
        first["mag"] += by
    else:
        case = doc["actions"][0]["cases"][0]
        phase = next(iter(case["terminal_1"]))
        case["terminal_1"][phase][0] += by
    path.write_text(json.dumps(doc))


def corrupt_pf(path: Path, by: float) -> None:
    """Nudge the first voltage magnitude of a solve/linearize output."""
    if path.suffix == ".json":
        corrupt_json(path, by)
        return
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    col = lines[0].split(",").index("mag_pu")
    cells[col] = repr(float(cells[col]) + by)
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")


def check_gate(tmp: Path) -> None:
    from phasorflow import load_feeder
    from phasorflow.cli import main

    data = ROOT / "src" / "phasorflow" / "data"

    out = tmp / "s13.json"
    assert main(["scenario", str(data / "ieee13_dual.json"), "-o", str(out)]) == 0
    ref = gate.load_reference("scenario13")
    assert gate.check_scenario(str(out), ref) == []
    corrupt_json(out, 1e-5)
    assert gate.check_scenario(str(out), ref), "corrupted scenario output passed"
    print("ok  gate: scenario output and its corruption")

    doc = tmp / "ieee37.json"
    gate.write_pf_doc(data / "ieee37.json", gate.PF_REF_FACTOR, doc)
    ref = gate.PfReference(str(doc))
    for command in ("solve", "linearize"):
        for ext in ("json", "csv"):
            out = tmp / f"pf.{ext}"
            assert main([command, str(doc), "-o", str(out)]) == 0
            assert gate.check_pf(command, str(out), ref) == [], (command, ext)
            assert gate.check_pf_stored("ieee37", command, str(out)) == [], (command, ext)
            corrupt_pf(out, 1e-6)
            assert gate.check_pf(command, str(out), ref), f"corrupted {command} {ext} passed"
            corrupt_pf(out, 1e-5)  # the stored references allow 1e-6
            assert gate.check_pf_stored("ieee37", command, str(out)), \
                f"corrupted {command} {ext} passed the stored reference"
    print("ok  gate: pf outputs (solve/linearize, json/csv) and their corruption")

    out = tmp / "mc.csv"
    grid = [0.0, 0.15]
    assert main(["montecarlo", str(data / "ieee13.json"), "--grid", "0:0.15:0.15",
                 "--per-cell", "4", "--seed", "11", "-o", str(out)]) == 0
    base = load_feeder(data / "ieee13.json")
    samples = [3, 1, 2, 0]
    assert gate.check_mc(str(out), base, grid, 4, 11, samples) == []
    assert gate.check_mc(str(out), base, grid, 5, 11, samples), "short record count passed"
    assert gate.check_mc(str(out), base, grid, 4, 12, samples), "wrong seed passed"
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    col = header.index("eps_power")
    for row in rows:  # the sampled draw of cell (0.15, 0.15)
        if float(row[0]) == float(row[1]) == 0.15 and row[2] == "0":
            row[col] = repr(float(row[col]) * (1 + 1e-6))
    out.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    assert gate.check_mc(str(out), base, grid, 4, 11, samples), "corrupted mc record passed"

    assert main(["montecarlo", str(data / "ieee13.json"), *gate.MC_REF_ARGS,
                 "-o", str(out)]) == 0
    assert gate.check_mc_stored(str(out)) == []
    lines = out.read_text().splitlines()
    cells = lines[5].split(",")
    cells[col] = repr(float(cells[col]) + 1e-5)
    out.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
    assert gate.check_mc_stored(str(out)), "corrupted mc record passed the stored reference"
    print("ok  gate: montecarlo records and their corruption")


def check_bare_dir(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "pf", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok  bare directory refused with exit code {proc.returncode}")


def main() -> None:
    check_metrics()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        check_gate(Path(tmp))
        check_bare_dir(Path(tmp))
    print("selftest passed")


if __name__ == "__main__":
    main()

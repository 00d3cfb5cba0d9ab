"""Repeat benchmark runs and summarise them.

    python3 perfbench/baseline.py runs [--seeds 1:10] [--out F]
        Runs run.py once per workload and seed (untraced) and prints, per
        end-to-end metric, the median, the quartiles and their distance as
        a share of the median, next to the bound in BENCHMARK.json.
    python3 perfbench/baseline.py compare A.json B.json
        Median of B against median of A for every metric and workload.
    python3 perfbench/baseline.py layers
        One traced run per workload, seed 1: the per-layer table, and a
        check of the iteration and build counts against the recorded
        baseline.

Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS_SEED = 1

# Iteration counts of the ROADMAP baseline that the traced runs must
# reproduce: Newton steps per exact solve, ADMM iterations per dispatch.
EXPECTED_COUNTS = (
    ("scenario13", "exact", "46 for the open-network solve of ieee13_dual, 45 for the five others",
     lambda h: set(h) == {45, 46} and h[45] == 5 * h[46]),
    ("scenario13", "opf.solve", "2358 and 2672", lambda h: set(h) == {2358, 2672}),
    ("seq37", "exact", "3 for every solve", lambda h: set(h) == {3}),
    ("seq37", "opf.solve", "33 and 32", lambda h: set(h) == {32, 33}),
    ("pf", "exact", "3 for every solve", lambda h: set(h) == {3}),
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_runs(args) -> None:
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in WORKLOADS:
        runs = [run_once(wl, seed, seconds, 0) for seed in args.seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = dict(summary(values), values=values)
        out["workloads"][wl] = entry
        print(f"{wl}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"correct={entry['correct']}")
        for name, s in entry["metrics"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def cmd_compare(args) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    for wl, entry in b["workloads"].items():
        for name, s in entry["metrics"].items():
            base = a["workloads"][wl]["metrics"][name]["median"]
            change = s["median"] / base - 1.0
            worse = change if spec[name]["better"] == "lower" else -change
            verdict = "ok" if worse <= spec[name]["bound"] else "WORSE"
            print(f"{wl:<11} {name:<12} {base:<12.6g} -> {s['median']:<12.6g} "
                  f"{change:+.4f} (bound {spec[name]['bound']}) {verdict}")


def cmd_layers(args) -> None:
    seconds = SPEC["run_seconds"]
    names = [m["name"] for m in SPEC["per_layer"]]
    cols = {}
    counts = {}
    for wl in WORKLOADS:
        res = run_once(wl, LAYERS_SEED, seconds, 1)
        cols[wl] = {n: res["metrics"][n]["value"] for n in names}
        hist: dict[str, dict[int, int]] = {}
        trace = Path(".perfbench") / f"trace-{wl}-{LAYERS_SEED}.jsonl"
        for line in trace.read_text().splitlines():
            sp = json.loads(line)
            if sp["count"] is not None:
                layer = hist.setdefault(sp["layer"], {})
                layer[sp["count"]] = layer.get(sp["count"], 0) + 1
        counts[wl] = hist
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    print(f"per-layer metrics, traced run, seed {LAYERS_SEED}, {seconds} s per workload "
          "(mc13 per draw, others per op)")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---:|" * len(WORKLOADS))
    for n in names:
        print(f"| {n} | {units[n]} | " + " | ".join(f"{cols[w][n]:.4g}" for w in WORKLOADS) + " |")
    print("\nsolves by iteration count (count: solves):")
    for wl in WORKLOADS:
        for layer, hist in sorted(counts[wl].items()):
            print(f"  {wl:<11} {layer:<10} {dict(sorted(hist.items()))}")
    ok = True
    for wl, layer, want, check in EXPECTED_COUNTS:
        met = check(counts[wl].get(layer, {}))
        ok &= met
        print(f"  {'ok' if met else 'MISMATCH':<8} {wl} {layer}: {want}")
    # mc13 builds one Network and one NetworkIndex per draw; the base
    # network is also stripped once per op of 900 draws, through the same
    # replace.
    network, index = cols["mc13"]["model.network_builds"], cols["mc13"]["model.index_builds"]
    met = abs(network - 901 / 900) < 1e-12 and index == 1
    ok &= met
    print(f"  {'ok' if met else 'MISMATCH':<8} mc13 builds per draw: Network 1 + 1/900, "
          f"NetworkIndex 1 (got {network:.6g}, {index:.6g})")
    if not ok:
        raise SystemExit("baseline iteration counts not reproduced")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1:10"))
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    sub.add_parser("layers")
    args = ap.parse_args()
    {"runs": cmd_runs, "compare": cmd_compare, "layers": cmd_layers}[args.cmd](args)


if __name__ == "__main__":
    main()

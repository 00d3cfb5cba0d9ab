"""phasorflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {mc13,scenario13,seq37,pf} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed. The script

1. times set-up: ten fresh interpreters each import ``phasorflow.cli``
   and ``validate`` the workload's input document (for pf, a seeded
   load-scaled ieee37 document); the first is discarded. Each is scaled
   to a reference start-up speed by reference interpreters that only
   import numpy, timed just before and after it, and ``setup_s`` is the
   median of the nine;
2. starts a fresh workload process (``workload.py``) with BLAS pinned to
   one thread, which runs ops for ``--seconds`` seconds and checks every
   output outside the timed region;
3. prints an environment record, a table of metrics, and as its last line
   a JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
   the per-layer metrics with ``--trace 1``.

Scratch files go to ``.perfbench/`` in the checkout, as does the span
file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

WORKLOADS = ("mc13", "scenario13", "seq37", "pf")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
PROBE = ("import sys; sys.path.insert(0, 'src'); import phasorflow.cli as c; "
         "sys.exit(c.main(['validate', sys.argv[1]]))")
# The reference interpreter of the set-up probes, and its start-up time at
# the reference speed: about its median on the baseline machine.
REF_PROBE = "import numpy"
REF_START_S = 0.15


def tail(lat: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Runs with fewer than 21 samples have no such percentile above the
    median; the median stands in and the label says so.
    """
    xs = sorted(lat)
    n = len(xs)
    k = n - 11
    if k < (n - 1) // 2:
        return statistics.median(xs), f"median of {n} samples (a tail needs 21)"
    return xs[k], f"p{100 * (k + 1) / n:.1f} of {n} samples, {n - 1 - k} beyond it"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def time_setup(root: Path, doc: Path, env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import the CLI and validate ``doc``.

    Returns their wall seconds, and the same at the reference speed: times
    REF_START_S over the mean time of the reference interpreters started
    just before and after. The start-up speed of a shared host drifts over
    minutes, and the reference cancels most of that drift. The first
    interpreter warms the file cache and is left out.
    """
    def wall(code: str, check: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(doc)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        t = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith(check):
            raise SystemExit(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        return t

    raw, scaled = [], []
    ref_before = wall(REF_PROBE, "")
    for i in range(SETUP_PROBES + 1):
        t = wall(PROBE, "ok:")
        ref_after = wall(REF_PROBE, "")
        if i:
            raw.append(t)
            scaled.append(t * REF_START_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return raw, scaled


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    data = root / "src" / "phasorflow" / "data"
    if not (root / "src" / "phasorflow" / "cli.py").is_file():
        print(f"no phasorflow source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    rundir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = child_env(root)
    try:
        probe_doc = {"mc13": data / "ieee13.json", "scenario13": data / "ieee13_dual.json",
                     "seq37": data / "ieee37_dual.json",
                     "pf": rundir / "ieee37-probe.json"}[args.workload]
        if args.workload == "pf":
            factor = random.Random(args.seed).uniform(*gate.PF_SCALE)
            gate.write_pf_doc(data / "ieee37.json", factor, probe_doc)
        setup, setup_scaled = ([], []) if args.trace else time_setup(root, probe_doc, env)

        result_path = rundir / "result.json"
        with open(rundir / "stderr.log", "w") as err:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--rundir", str(rundir),
                 "--result", str(result_path)],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err,
                timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            log = (rundir / "stderr.log").read_text().strip().splitlines()
            print(f"workload process exited {proc.returncode}: {log[-1:] or ''}",
                  file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    own = os.times()
    res["env"]["run_wall_s"] = time.perf_counter() - t_start
    res["env"]["run_cpu_s"] = own.user + own.system + own.children_user + own.children_system
    res["env"]["workload_wall_s"] = res.pop("wall_s")
    res["env"]["workload_cpu_s"] = res.pop("cpu_s")

    lat = res["latencies_ms"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        per = "per draw" if res["unit"] == "draws" else "per op"
        rows = [(n, m["value"], m["unit"], per) for n, m in metrics.items()]
        rows.append(("trace file", 0.0, "", res["trace_file"]))
    else:
        norm = res["norm"]
        tail_norm, tail_note = tail(norm)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "op_p50_norm": {"value": statistics.median(norm), "unit": "kernels"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        tail_ms, _ = tail(lat)
        rate = res["units"] / (sum(lat) / 1e3)
        rows = [
            ("setup_s", metrics["setup_s"]["value"], "s",
             f"median of {len(setup)} fresh processes, at the reference speed "
             f"(`python3 -c '{REF_PROBE}'` in {REF_START_S:g} s)"),
            ("setup_raw_s", statistics.median(setup), "s", "same, wall-clock; not gated"),
            ("op_p50_norm", metrics["op_p50_norm"]["value"], "kernels",
             f"{len(norm)} ops, latency in reference-kernel runs"),
            ("op_tail_norm", tail_norm, "kernels", f"{tail_note}; not gated"),
            ("peak_rss_mb", res["peak_rss_mb"], "MiB", "ru_maxrss of the workload process"),
            ("op_p50_ms", statistics.median(lat), "ms", "wall time, net of the probe"),
            ("op_tail_ms", tail_ms, "ms", "same percentile as op_tail_norm"),
            (f"{res['unit']}_per_s", rate, f"{res['unit']}/s", "per second of timed ops"),
            ("kernel_ms", res["kernel_ms"], "ms",
             f"median reference-kernel time; probe took {100 * res['probe_frac']:.2f}% of the run"),
        ]
    rows.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} ops"))
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if unit else ""
        print(f"  {name:<30} {shown:>12} {unit:<8} {note}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh process: warm up, run timed ops, gate them.

Started by ``run.py`` with BLAS pinned to one thread; not meant to be run
by hand. Each op is one in-process ``phasorflow.cli.main([...])`` call,
issued by one closed-loop client: the next op starts when the previous
one and its correctness check are done. The result is written as JSON to
``--result``.

With ``--trace 0`` a speed probe (``speed.py``) samples the machine's
speed during the run, so each op's latency is also reported in runs of a
fixed reference kernel. With ``--trace 1`` ops run in pairs, the same op
untraced and traced, in alternating order; the layer metrics come from
the traced ops and the ratio of the two times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SpeedProbe  # noqa: E402
import gate  # noqa: E402

MC_GRID_TEXT = "0:0.15:0.075"
MC_GRID = [0.0, 0.075, 0.15]
MC_PER_CELL = 100


class Op:
    """One CLI call: its arguments, work units (draws or 1) and its check."""

    def __init__(self, argv: list[str], units: int, check) -> None:
        self.argv = argv
        self.units = units
        self.check = check


class Mc13:
    """``montecarlo ieee13.json`` on the 3x3 grid, 100 draws per cell."""

    unit = "draws"
    block = 1
    long_ops = True  # about 7 s (see SpeedProbe.kernel_s)

    def __init__(self, root: Path, seed: int, outdir: Path) -> None:
        from phasorflow import load_feeder

        self.doc = str(root / "src/phasorflow/data/ieee13.json")
        self.base = load_feeder(self.doc)
        self.rng = np.random.default_rng([seed, 13])
        self.out = str(outdir / "mc13.csv")

    def warmup(self) -> list[Op]:
        # The fixed call of the stored reference (2 draws per cell).
        return [Op(["montecarlo", self.doc, *gate.MC_REF_ARGS, "-o", self.out], 18,
                   lambda: gate.check_mc_stored(self.out))]

    def op(self, k: int) -> Op:
        mc_seed = int(self.rng.integers(2**31))
        samples = [int(s) for s in self.rng.integers(MC_PER_CELL, size=len(MC_GRID) ** 2)]
        return Op(["montecarlo", self.doc, "--grid", MC_GRID_TEXT, "--per-cell",
                   str(MC_PER_CELL), "--seed", str(mc_seed), "-o", self.out],
                  len(MC_GRID) ** 2 * MC_PER_CELL,
                  lambda: gate.check_mc(self.out, self.base, MC_GRID, MC_PER_CELL,
                                        mc_seed, samples))


class Scenario:
    """A shipped dual-feeder scenario, repeated; compared with refs/."""

    unit = "ops"
    block = 1

    def __init__(self, root: Path, name: str, doc: str, extra: list[str],
                 long_ops: bool, outdir: Path) -> None:
        self.long_ops = long_ops
        self.argv = ["scenario", str(root / "src/phasorflow/data" / doc), *extra,
                     "-o", str(outdir / f"{name}.json")]
        self.ref = gate.load_reference(name)

    def warmup(self) -> list[Op]:
        return [self.op(0)]

    def op(self, k: int) -> Op:
        return Op(self.argv, 1, lambda: gate.check_scenario(self.argv[-1], self.ref))


# pf mix per block of twenty ops: fourteen 37-node solves keep the median
# inside one latency mode (37-node solve); the rest spread over the other
# kinds. Each kind writes JSON and CSV equally often, so the output format
# mix does not vary between runs either.
PF_BLOCK = [(feeder, command, ext)
            for feeder, command, n in (("ieee37", "solve", 7), ("ieee37", "linearize", 1),
                                       ("ieee13", "solve", 1), ("ieee13", "linearize", 1))
            for ext in ("json", "csv") for _ in range(n)]


class Pf:
    """A seeded stream of one-shot ``solve``/``linearize`` calls.

    Every op reads a document of its own, written before the op starts:
    ieee13 or ieee37 with every load scaled by a seeded factor. No file or
    content repeats, so a cache keyed by path or content never hits. The
    reference is computed after the op has run. A document is deleted
    when the next one is written (a traced run reads each one twice).
    """

    unit = "ops"
    block = len(PF_BLOCK)
    long_ops = False  # 5-35 ms

    def __init__(self, root: Path, seed: int, outdir: Path, docdir: Path) -> None:
        self.data = root / "src/phasorflow/data"
        self.rng = np.random.default_rng([seed, 1])
        self.outdir = outdir
        self.docdir = docdir
        docdir.mkdir(parents=True, exist_ok=True)
        self.written = 0
        self.doc: Path | None = None
        self.pending: list[tuple[str, str, str]] = []

    def warmup(self) -> Iterator[Op]:
        # The fixed-factor documents of the stored references. One op at a
        # time, because writing a document deletes the one before.
        for feeder in gate.FEEDERS:
            for command in ("solve", "linearize"):
                for ext in ("json", "csv"):
                    yield self._op(feeder, command, ext, gate.PF_REF_FACTOR)

    def _op(self, feeder: str, command: str, ext: str, factor: float | None = None) -> Op:
        stored = factor is not None
        if not stored:
            factor = float(self.rng.uniform(*gate.PF_SCALE))
        if self.doc is not None:
            self.doc.unlink()
        self.written += 1
        doc = self.doc = self.docdir / f"{feeder}-{self.written}.json"
        gate.write_pf_doc(self.data / f"{feeder}.json", factor, doc)
        out = str(self.outdir / f"pf.{ext}")

        def check() -> list[str]:
            problems = gate.check_pf(command, out, gate.PfReference(str(doc)))
            if stored:
                problems += gate.check_pf_stored(feeder, command, out)
            return problems

        return Op([command, str(doc), "-o", out], 1, check)

    def op(self, k: int) -> Op:
        if not self.pending:
            self.pending = [PF_BLOCK[i] for i in self.rng.permutation(len(PF_BLOCK))]
        return self._op(*self.pending.pop())


def make_workload(name: str, root: Path, seed: int, outdir: Path, docdir: Path):
    if name == "mc13":
        return Mc13(root, seed, outdir)
    if name == "scenario13":
        return Scenario(root, name, "ieee13_dual.json", [], True, outdir)  # about 1.3 s
    if name == "seq37":
        return Scenario(root, name, "ieee37_dual.json", ["--sequential"], False,
                        outdir)  # about 0.45 s
    if name == "pf":
        return Pf(root, seed, outdir, docdir)
    raise SystemExit(f"unknown workload {name!r}")


def blas_info() -> list[dict]:
    """Loaded OpenBLAS libraries with their configuration and thread count."""
    out = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
        out.append(info)
    return out


def environment() -> dict:
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    root = Path.cwd()
    rundir = Path(args.rundir)
    import phasorflow.cli

    src = (root / "src").resolve()
    if src not in Path(phasorflow.cli.__file__).resolve().parents:
        raise SystemExit(f"phasorflow imported from {phasorflow.cli.__file__}, not {src}")
    cli_main = phasorflow.cli.main

    wl = make_workload(args.workload, root, args.seed, rundir, rundir / "docs")
    tracer = Tracer()
    probe = SpeedProbe()
    # The speed probe runs in untraced runs only, so spans hold no probe
    # time. It starts before the warm-up so the first op has samples.
    if not args.trace:
        probe.start()
    for op in wl.warmup():
        rc = cli_main(op.argv)
        problems = op.check()
        if rc != 0 or problems:
            raise SystemExit(f"warm-up op {op.argv} failed: exit {rc}, {problems[:1]}")

    spans_s: list[tuple[float, float]] = []  # (start, end) of each timed op
    untraced_s = traced_s = 0.0
    units = traced_units = failed = 0
    failures: list[str] = []

    def run(op: Op, traced: bool) -> float:
        nonlocal failed
        if traced:
            tracer.op += 1
            tracer.install()
            try:
                t0 = time.perf_counter()
                rc = tracer.span("main", "cli", cli_main, op.argv)
                t1 = time.perf_counter()
            finally:
                tracer.uninstall()
        else:
            t0 = time.perf_counter()
            rc = cli_main(op.argv)
            t1 = time.perf_counter()
        spans_s.append((t0, t1))
        problems = [f"exit code {rc}"] if rc != 0 else op.check()
        if problems:
            failed += 1
            failures.append(f"{' '.join(op.argv)}: {problems[0]}")
        return t1 - t0

    k = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    # pf ends on a whole block, so every run has the same op mix.
    while time.perf_counter() - start < args.seconds or k % wl.block:
        op = wl.op(k)
        if args.trace:
            order = (False, True) if k % 2 == 0 else (True, False)
            for traced in order:
                dt = run(op, traced)
                if traced:
                    traced_s += dt
                    traced_units += op.units
                else:
                    untraced_s += dt
                units += op.units
        else:
            run(op, False)
            units += op.units
        k += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    probe.stop()

    # Op latency net of probe time, and in kernel runs (see speed.py).
    net_s = [t1 - t0 - probe.inside(t0, t1) for t0, t1 in spans_s]
    result = {
        "workload": args.workload,
        "unit": wl.unit,
        "latencies_ms": [x * 1e3 for x in net_s],
        "units": units,
        "attempted": len(spans_s),
        "failed": failed,
        "failures": failures[:5],
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if args.trace:
        overhead = traced_s / untraced_s - 1.0
        result["layers"] = layer_metrics(tracer.spans, traced_units, overhead)
        trace_path = rundir.parent / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(str(trace_path))
        result["trace_file"] = str(trace_path.relative_to(root))
    else:
        kernel_s = [probe.kernel_s(t0, t1, wl.long_ops) for t0, t1 in spans_s]
        result["norm"] = [x / k_s for x, k_s in zip(net_s, kernel_s)]
        result["kernel_ms"] = statistics.median(probe.times) * 1e3
        result["probe_frac"] = sum(probe.times) / wall
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one workload, in a fresh process.

Started by run.py with one numerical thread.  The process first times its
own set-up (importing phreactor and building the bundled network,
setpoint, gains and start state), then runs the workload's rounds through
``phreactor.cli.main`` and prints one JSON object as its last line.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Rounds measured at least, whatever --seconds says.
MIN_ROUNDS = 3
#: Seconds the calibration kernel takes on this benchmark's reference
#: machine state; timings are reported at that speed (see calibrate).
CAL_REF = 0.025
#: Iterations of the calibration kernel.
CAL_ITERS = 3000

#: Stop starting rounds after this long, so a run ends within its limit
#: even on a much slower program.
MAX_SECONDS = 110.0


def set_up() -> float:
    """Import the package from this checkout and build the bundled
    scenario; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from phreactor import presets

    net = presets.benchmark_network()
    presets.benchmark_setpoint(net)
    presets.benchmark_gains()
    presets.benchmark_initial_state(net)
    elapsed = time.perf_counter() - start
    if not Path(presets.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"phreactor was imported from {presets.__file__}, "
                         f"not from {SRC}")
    return elapsed


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that resembles the
    program's own: scalar Python arithmetic between numpy operations on
    length-2 arrays.

    The host's speed drifts by up to a factor of two within seconds, as
    other tenants load it.  Each round is timed between two calibrations,
    and its time is reported scaled by CAL_REF over their mean, which
    removes most of that drift from run-to-run comparisons while keeping
    any change in the program's own cost.
    """
    import numpy as np

    cp = np.array([75.24, 60.0])
    N = np.array([1.3, 0.7])
    acc = 0.0
    start = time.perf_counter()
    for i in range(CAL_ITERS):
        T = 320.0 + (i % 64) * 0.5
        h = cp * (T - 300.0) + N
        mu = -cp * np.log(T / 300.0) + 8.314 * np.log(N / N.sum()) + h / T
        acc += float(h @ N) + math.exp(-72331.8 / (8.314 * T)) + float(mu @ N)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel overflowed")
    return elapsed


def nearest_rank(ordered, p: float) -> float:
    """The p-th percentile of sorted samples by the nearest-rank rule."""
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9)) - 1]


def tail_percentile(samples, candidates=(50, 90, 99, 99.9, 99.99)):
    """The highest candidate percentile with at least ten samples above
    it, as (percentile, value, sample count); None when even the median
    has fewer than ten above it."""
    n = len(samples)
    ok = [p for p in candidates
          if n - math.ceil(p * n / 100.0 - 1e-9) >= 10]
    if not ok:
        return None
    p = max(ok)
    return p, nearest_rank(sorted(samples), p), n


class Runner:
    """Runs rounds of one workload and checks every command's output."""

    def __init__(self, workload, out: Path):
        from phreactor import cli

        self.main = cli.main
        self.workload = workload
        self.out = out
        self.tracer = None  # set while a round is traced
        self.first: dict[tuple, str] = {}    # argv -> digest of first output
        self.pending: list[tuple] = []       # first outputs awaiting checks
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self._sink = open(os.devnull, "w")

    def close(self):
        self._sink.close()

    def call(self, argv: list[str]) -> float:
        """Run one command and return its wall time; record whether its
        output repeats the bytes of the command's first run."""
        shutil.rmtree(self.out, ignore_errors=True)
        err = io.StringIO()
        span = (self.tracer.span("cli.main") if self.tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(self._sink), \
                contextlib.redirect_stderr(err), span:
            start = time.perf_counter()
            rc = self.main(argv)
            elapsed = time.perf_counter() - start
        files = ({p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
                 if self.out.is_dir() else {})
        if self.tracer is not None:
            self.tracer.count("cli.files_written", len(files))
            self.tracer.count("cli.bytes_written",
                              sum(len(b) for b in files.values()))
        self.attempted += self.workload.ops
        key = tuple(argv)
        digest = hashlib.sha256(b"".join(
            name.encode() + b"\0" + data for name, data in files.items()
        )).hexdigest()
        problem = None
        if rc != 0:
            problem = f"{argv[0]} exited {rc}: {err.getvalue().strip()[:200]}"
        elif key not in self.first:
            self.first[key] = digest
            self.pending.append((argv, files))
        elif self.first[key] != digest:
            problem = (f"{argv[0]}: output bytes differ between two runs of "
                       "the same command")
        if problem:
            self.problems.append(problem)
            self.failed += self.workload.ops
        return elapsed

    def verify_pending(self) -> None:
        """Check each command's first output (outside any timed region)."""
        for argv, files in self.pending:
            found = self.workload.check(argv, files)
            if found:
                self.failed += self.workload.ops
                self.problems.extend(found)
        self.pending.clear()

    def round(self, k: int) -> float:
        total = 0.0
        for argv in self.workload.calls(k):
            elapsed = self.call(argv)
            total += elapsed
            self.latencies.append(elapsed)
        return total


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced rounds for ``seconds``: the end-to-end metrics."""
    walls, scaled = [], []
    runner.latencies = []
    start = time.perf_counter()
    cal = calibrate()
    k = 1
    while True:
        wall = runner.round(k)
        cal_next = calibrate()
        walls.append(wall)
        scaled.append(wall * CAL_REF / (0.5 * (cal + cal_next)))
        cal = cal_next
        k += 1
        elapsed = time.perf_counter() - start
        enough = (elapsed >= seconds and len(walls) >= MIN_ROUNDS
                  and len(runner.latencies) >= runner.workload.min_calls)
        if enough or elapsed >= MAX_SECONDS:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    w = runner.workload
    metrics = {
        "wall_s": statistics.median(scaled),
        "work_per_s": w.work * len(runner.latencies) / len(walls)
                      / statistics.median(scaled),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    info = {"rounds": len(walls), "calls": len(runner.latencies),
            "raw_wall_s": statistics.median(walls),
            "wall_quartiles": statistics.quantiles(scaled, n=4)
            if len(scaled) > 1 else [scaled[0]] * 3,
            "work_name": w.work_name}
    if w.min_calls > 1:
        ms = [t * 1e3 for t in runner.latencies]
        info["check_latency_p50_ms"] = statistics.median(ms)
        info["check_latency_p99_ms"] = nearest_rank(sorted(ms), 99)
        info["tail"] = tail_percentile(ms)
    return {"metrics": metrics, "info": info}


def measure_traced(runner: Runner, tracer, seconds: float) -> dict:
    """Pairs of untraced and traced rounds on the same inputs: per-layer
    metrics (median over traced rounds) and the tracing overhead."""
    import tracing

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        runner.tracer = None
        plain.append(runner.round(0))
        tracer.round = len(traced)
        runner.tracer = tracer
        with tracing.installed(tracer):
            traced.append(runner.round(0))
        runner.tracer = None
        elapsed = time.perf_counter() - start
        if ((elapsed >= seconds and len(traced) >= MIN_ROUNDS)
                or elapsed >= MAX_SECONDS):
            break
    per_round = tracing.layer_metrics(tracer, range(len(traced)))
    metrics = {name: statistics.median(r[name] for r in per_round.values())
               for name in per_round[0]}
    # Each pair ran back to back, so its difference cancels most drift of
    # the host's speed.
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced, plain))
    info = {"rounds": len(traced), "traced_wall_s": statistics.median(traced),
            "untraced_wall_s": statistics.median(plain)}
    return {"metrics": metrics, "info": info}


def write_spans(tracer, path: Path) -> None:
    with path.open("w") as f:
        f.write("round,name,parent,start_s,end_s\n")
        for name, parent, start, end, rnd in tracer.spans:
            f.write(f"{rnd},{name},{parent},{start!r},{end!r}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = set_up() * CAL_REF / calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    from phreactor import presets

    import tracing
    from workloads import WORKLOADS

    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    net_path = base / "network.cfg"
    # The CLI does not fall back to the bundled network when --network is
    # omitted, so every command names this file.
    net_path.write_text(presets.CONFIG_TEXT, newline="\n")
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                        str(base / "cli"), str(net_path))
    runner = Runner(workload, base / "cli")
    try:
        runner.round(0)  # warm-up, and a fail-fast correctness check
        runner.verify_pending()
        if not runner.problems:
            if args.trace:
                tracer = tracing.Tracer()
                result = measure_traced(runner, tracer, args.seconds)
                write_spans(tracer, base / "spans.csv")
            else:
                result = measure(runner, args.seconds)
            runner.verify_pending()
        else:
            result = {"metrics": {}, "info": {}}
    finally:
        runner.close()
    result.update(setup_s=setup_s, correct=not runner.problems,
                  attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

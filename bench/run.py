"""The phreactor benchmark: one workload, one fresh single-threaded
process, every metric printed by name and unit, outputs checked.

    python3 bench/run.py --workload casestudy --seed 1 --seconds 10 --trace 0

Workloads: casestudy, saturated-path, equilibria, check-sweep (see
README.md).  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead.  The exit code is 0 only when
every output passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("casestudy", "saturated-path", "equilibria", "check-sweep")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "work_per_s": "1/s"}

#: Fresh processes that only set up; with the workload process's own
#: set-up they give the median that ``setup_s`` reports.
SETUP_PROBES = 8

#: One thread for every numerical library numpy may link.
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process; its last stdout line as JSON."""
    env = dict(os.environ, **ONE_THREAD)
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phreactor" / "__init__.py").is_file():
        print(f"bench: no phreactor sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        setups = [_worker(["--setup-only"], 60)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        run = _worker(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], 150)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    setups.append(run["setup_s"])
    metrics = dict(run["metrics"])
    info = run["info"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    if args.trace:
        import tracing

        units = tracing.PER_LAYER
        print(f"traced rounds {info.get('rounds')}: wall "
              f"{info.get('traced_wall_s', 0):.4f} s traced, "
              f"{info.get('untraced_wall_s', 0):.4f} s untraced")
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
        if "wall_s" in metrics:
            q1, _, q3 = info["wall_quartiles"]
            print(f"rounds {info['rounds']}, commands {info['calls']}; "
                  f"wall_s quartiles {q1:.4f} .. {q3:.4f} s; "
                  f"unscaled wall_s {info['raw_wall_s']:.4f} s; "
                  f"setup_s from {len(setups)} processes")
            print(f"{info['work_name']} = {metrics['work_per_s']:.6g}")
            if "tail" in info:
                p, value, n = info["tail"]
                print(f"check_latency_p50_ms = "
                      f"{info['check_latency_p50_ms']:.4f} ms, "
                      f"check_latency_p99_ms = "
                      f"{info['check_latency_p99_ms']:.4f} ms; highest "
                      f"percentile with 10 samples above it: p{p} = "
                      f"{value:.4f} ms over {n} calls")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    for problem in run["problems"]:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

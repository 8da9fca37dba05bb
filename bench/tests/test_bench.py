"""Tests of the benchmark's own code.  Run with

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("n, expected", [
    (19, None),                  # the median has 9 samples above it
    (20, (50, 10.0, 20)),
    (100, (90, 90.0, 100)),
    (999, (90, 900.0, 999)),     # p99 would leave only 9 above
    (1000, (99, 990.0, 1000)),
    (10000, (99.9, 9990.0, 10000)),
])
def test_tail_percentile_keeps_ten_samples_above(n, expected):
    samples = [float(v) for v in range(n, 0, -1)]  # order must not matter
    assert worker.tail_percentile(samples) == expected


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):              # 0 .. 10
        with tracer.span("b"):          # 1 .. 5
            with tracer.span("c"):      # 2 .. 4
                pass
        with tracer.span("b"):          # 6 .. 9
            pass
    table = tracing.span_table(tracer.spans)
    assert table[(0, "a")] == {"calls": 1, "total": 10.0, "self": 3.0,
                               "in_newton": 0}
    assert table[(0, "b")]["calls"] == 2
    assert table[(0, "b")]["total"] == 7.0
    assert table[(0, "b")]["self"] == 5.0
    assert table[(0, "c")]["self"] == 2.0


def test_rate_evaluations_counted_inside_newton_spans():
    tracer = tracing.Tracer()
    with tracer.span("structure.mass_action_rates"):
        pass
    with tracer.span("equilibrium.newton"):
        for _ in range(3):
            with tracer.span("structure.mass_action_rates"):
                pass
    with tracer.span("equilibrium.newton"):
        with tracer.span("structure.mass_action_rates"):
            pass
    metrics = tracing.layer_metrics(tracer, [0])[0]
    assert metrics["structure.mass_action_rates_calls"] == 5
    assert metrics["equilibrium.newton_solves"] == 2
    assert metrics["equilibrium.rate_evals_per_solve"] == 2.0
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.PER_LAYER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    def calls(seed):
        workload = WORKLOADS[name](np.random.default_rng(seed), "out",
                                   "network.cfg")
        return workload.calls(0)

    assert calls(1) == calls(1)
    assert calls(1) != calls(2)


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    """A copy of the benchmark, and optionally of the package sources."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_wrong_output_makes_the_command_fail(tmp_path):
    root = _checkout(tmp_path, with_src=True)
    cli = root / "src" / "phreactor" / "cli.py"
    text = cli.read_text()
    assert "ss.classification," in text
    cli.write_text(text.replace("ss.classification,", '"stable",'))
    proc = _run(root, "equilibria")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "stable/unstable/stable" in proc.stdout


def test_missing_sources_fail_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "equilibria")
    assert proc.returncode != 0
    assert proc.stdout == ""

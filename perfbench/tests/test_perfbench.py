"""Tests of the benchmark's own code: span arithmetic, seeding, failure and
reference accounting, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
from nearfield import estimator, harness  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

# One SNR point, one trial per sweep: a run is a few desk-sized sweeps.
TINY = bench.Workload("tiny", "snr", harness.desk_profile, 1, 1, 1, overrides={"snr_list_db": (10.0,)})


@pytest.fixture(scope="module")
def tiny_reference():
    return bench.capture_reference(TINY)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),  # overlaps a
        Span("c", 8.0, 12.0, 0, None),  # runs past the end of root
        Span("grandchild", 1.0, 2.0, 1, None),  # a's child, not root's
    ]
    # root is covered on [1, 6] and [8, 10].
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_tracer_links_parents_and_trials():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 42)
    outer = tracer.wrap("outer", lambda: inner())
    tracer.trial = "snr=0.0#1"
    assert outer() == 42
    assert [(s.name, s.parent, s.trial) for s in tracer.spans] == [
        ("outer", -1, "snr=0.0#1"),
        ("inner", 0, "snr=0.0#1"),
    ]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


def test_seed_argument_changes_the_generated_inputs():
    def first_paths(seed):
        spec = TINY.spec(seed, TINY.trials)
        channel_seed, _, _ = harness.trial_seeds(spec.master_seed, "snr", 10.0, 0)
        return harness.sample_paths(
            channel_seed, spec.num_paths, spec.distance_range,
            spec.elevation_range, spec.azimuth_range,
        )

    assert first_paths(1) == first_paths(1)
    assert first_paths(1) != first_paths(2)
    rows = {seed: bench.row_table(TINY.sweep(TINY.spec(seed, 1)).rows) for seed in (1, 2)}
    assert bench.row_mismatches(rows[1], rows[2])


def test_clean_runs_pass_and_report_every_metric(tmp_path, tiny_reference):
    plain = bench.run(TINY, 3, 0.0, False, tiny_reference, tmp_path)
    assert plain.correct and plain.failed == 0
    assert plain.attempted == 2 * len(harness.METHODS)  # one sweep + the reference pass
    assert set(plain.metrics) == {name for name, _ in bench.END_TO_END}
    assert all(value > 0 for value in plain.metrics.values())

    traced = bench.run(TINY, 3, 0.0, True, tiny_reference, tmp_path)
    assert traced.correct, traced.problems
    assert set(traced.metrics) == {name for name, _ in bench.PER_LAYER}
    metrics = traced.metrics
    assert metrics["harness.trials"] == 1
    assert metrics["channel.calls"] == 2
    assert metrics["estimator.s_somp.lstsq_per_iteration"] >= 1.0
    assert metrics["codebook.columns.spherical"] == 3789
    config = TINY.spec(3, 1).system
    rows = config.num_pilot_slots * config.num_rf_chains
    n, g, m, iters = config.num_antennas, 3789, config.num_subcarriers, 3
    assert metrics["estimator.s_somp.flops_computed.spherical"] == 8 * rows * n * g + 8 * iters * rows * g * m
    assert metrics["estimator.s_somp.bytes_computed.spherical"] == 16 * (n * g + rows * g + iters * rows * g)
    assert metrics["codebook.export_bytes"] > metrics["codebook.bytes.spherical"]


def test_forced_method_failure_is_counted(tmp_path, monkeypatch, tiny_reference):
    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(estimator, "ls_estimate", broken)
    plain = bench.run(TINY, 3, 0.0, False, tiny_reference, tmp_path)
    # The ls pair of the timed sweep and of the reference pass.
    assert plain.failed == 2 and not plain.correct
    assert plain.attempted == 2 * len(harness.METHODS)

    traced = bench.run(TINY, 3, 0.0, True, tiny_reference, tmp_path)
    assert not traced.correct
    assert traced.metrics["harness.method_failures"] == 1.0
    assert traced.metrics["harness.failed_ratio"] == traced.failed / traced.attempted > 0


def test_perturbed_reference_row_is_detected(tmp_path, tiny_reference):
    perturbed = copy.deepcopy(tiny_reference)
    value, method, nmse = perturbed["rows"][0]
    perturbed["rows"][0] = [value, method, nmse * (1.0 + 1e-4)]
    outcome = bench.run(TINY, 3, 0.0, False, perturbed, tmp_path)
    assert outcome.failed == 1 and not outcome.correct
    assert outcome.problems == [f"reference row {(value, method)} differs"]


def test_perturbed_reference_support_is_detected(tmp_path, tiny_reference):
    perturbed = copy.deepcopy(tiny_reference)
    key = sorted(perturbed["supports"])[0]
    perturbed["supports"][key] = list(reversed(perturbed["supports"][key]))
    outcome = bench.run(TINY, 3, 0.0, True, perturbed, tmp_path)
    assert not outcome.correct
    assert outcome.problems == [f"reference support {key} differs"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    reference = bench.load_reference()
    for name, workload in bench.WORKLOADS.items():
        assert reference[name]["seed"] == bench.REFERENCE_SEED
        assert reference[name]["trials"] == workload.reference_trials


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-snr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

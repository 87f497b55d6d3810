"""Self-tests for the benchmark harness.  Not part of the repository's
test suite; run with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _span(name, parent, start, end, agg=None):
    s = harness.Span(name, parent, 0, start, end)
    s.agg = agg or {}
    return s


def test_self_time_subtracts_children_and_folded_calls():
    spans = [
        _span("cli", None, 0.0, 10.0),
        _span("search", 0, 1.0, 4.0),
        _span("verify", 0, 3.0, 6.0, {"detect.naive": {"calls": 5, "time": 2.0}}),  # overlaps the sibling
        _span("words", 0, 9.0, 12.0),  # runs past the parent's end: clipped
    ]
    own = harness.self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 3.0 - 2.0, 3.0])
    totals = harness.layer_totals([spans, spans])
    assert totals["detect.naive"]["calls"] == 10
    assert totals["detect.naive"]["busy_s"] == pytest.approx(4.0)
    assert totals["verify"]["max_call_s"] == pytest.approx(3.0)


def test_tracer_nests_and_folds():
    tracer = harness.Tracer()
    inner = tracer.wrap_aggregated("leaf", lambda x: x, lambda args, r: {"pairs": args[0]})
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 7
    (span,) = tracer.spans
    assert span.agg["leaf"]["calls"] == 2 and span.agg["leaf"]["pairs"] == 7
    assert inner(5) == 5  # no open parent: an ordinary span
    assert [s.name for s in tracer.spans] == ["outer", "leaf"]
    own = harness.self_times(tracer.spans)
    assert 0 <= own[0] <= span.end - span.start


@pytest.mark.parametrize(
    "n, pct",
    [(5, 100.0), (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (199, 75.0),
     (200, 95.0), (10000, 95.0)],
)
def test_tail_percentile_leaves_ten_beyond(n, pct):
    assert harness.tail_percentile(n) == pct
    summary = harness.latency_summary([[float(i) for i in range(n)]], pct)
    assert summary["tail_beyond"] >= 10 or pct == 100.0


def test_latency_percentiles_are_taken_per_round(monkeypatch):
    monkeypatch.setattr(harness, "RANK_WINDOW", 2)
    rounds = [[float(i * k) for i in range(20, 0, -1)] for k in (3, 1, 2)]
    summary = harness.latency_summary(rounds, 75.0)
    assert (summary["tasks"], summary["rounds"], summary["tail_beyond"]) == (60, 3, 15)
    # p50: mean of ranks 8..12 of each round (10k s); p75: of ranks 13..17
    assert summary["p50_ms"] == pytest.approx(20_000.0)
    assert summary["tail_ms"] == pytest.approx(30_000.0)


def test_window_rank_averages_neighbours_of_the_nearest_rank(monkeypatch):
    monkeypatch.setattr(harness, "RANK_WINDOW", 2)
    values = [float(i) for i in range(1, 21)]
    assert harness.window_rank(values, 50.0) == pytest.approx(10.0)  # ranks 8..12
    assert harness.window_rank(values, 100.0) == pytest.approx(19.0)  # ranks 18..20
    assert harness.window_rank([7.0], 50.0) == 7.0


@pytest.mark.parametrize(
    "tasks, pct, rounds",
    [(20, 75.0, 2), (25, 75.0, 2), (67, 75.0, 1), (108, 95.0, 2), (250, 95.0, 1), (5, 100.0, 2)],
)
def test_tail_plan(tasks, pct, rounds):
    assert harness.tail_plan(tasks) == (pct, rounds)


def test_nearest_rank(monkeypatch):
    monkeypatch.setattr(harness, "RANK_WINDOW", 0)
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.window_rank(values, 50) == 3.0
    assert harness.window_rank(values, 100) == 5.0
    assert harness.window_rank(values, 1) == 1.0


def test_digest_is_canonical():
    assert harness.digest({"a": 1, "b": [1, 2]}) == harness.digest({"b": [1, 2], "a": 1})
    assert harness.digest({"a": 1}) != harness.digest({"a": 2})


def test_spread():
    assert harness.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert harness.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_host_clock_rescales_and_leaves_out_probe_time(monkeypatch):
    monkeypatch.setattr(harness, "PROBE_SMOOTHING", 0)
    ref = harness.REF_PROBE_S
    # probes at 0, 10 and 20 s; the middle one ran at half speed
    clock = harness.HostClock([(0.0, ref), (10.0, 10.0 + 2 * ref), (20.0, 20.0 + ref)])
    # [5, 15]: 5 s at full speed, the probe, then 5 s - 2ref at half speed
    assert clock.work_time(5.0, 15.0, scaled=False) == pytest.approx(10.0 - 2 * ref)
    assert clock.work_time(5.0, 15.0) == pytest.approx(5.0 + (5.0 - 2 * ref) / 2)
    # before the first probe, the first probe's speed; inside a probe, nothing
    assert clock.work_time(-1.0, 0.0) == pytest.approx(1.0)
    assert clock.work_time(10.0, 10.0 + ref) == 0.0
    assert clock.work_time(25.0, 26.0) == pytest.approx(1.0)


def test_host_clock_smooths_probe_speed():
    d = [1.0, 1.0, 5.0, 1.0, 1.0]  # one probe slowed by something it interrupted
    clock = harness.HostClock([(10.0 * i, 10.0 * i + x) for i, x in enumerate(d)])
    assert clock.probe_s == [1.0] * 5


def test_probes_record_ordered_intervals():
    probes = harness.Probes()
    probes.probe()
    probes.probe()
    (a, b), (c, d) = probes.intervals
    assert a < b <= c < d


def _task(label, value, check=lambda r: []):
    return workloads.Task("t", label, lambda api: value, check, lambda r: {"v": r, "counts": {"search.nodes": r}})


def _ledger(*task_lists):
    ledger = run.Ledger()
    for tasks in task_lists:
        ledger.add(run.run_round(tasks, None)[1])
    return ledger


def test_ledger_counts_failures_and_mismatches():
    ok = [_task("a", 1), _task("b", 2)]
    ledger = _ledger(ok, ok, ok)
    assert (ledger.attempted, ledger.failed) == (6, 0)
    assert ledger.counts()["search.nodes"] == 3

    # a fault injected into one task's check fails that task in every round
    faulty = [_task("a", 1), _task("b", 2, check=lambda r: ["injected"])]
    ledger = _ledger(faulty, faulty, faulty)
    assert ledger.failed == 3 and "b: injected" in ledger.problems

    # a round whose outcome changed, and a task that raised
    def boom(api):
        raise RuntimeError("boom")

    ledger = _ledger(ok, [_task("a", 1), _task("b", 9)], [_task("a", 1), workloads.Task("t", "b", boom, None, None)])
    assert ledger.failed == 2
    assert any("differs from round 1" in p for p in ledger.problems)


def test_outcome_digest_follows_outcomes():
    a = harness.digest(_ledger([_task("a", 1)]).outcomes())
    b = harness.digest(_ledger([_task("a", 2)]).outcomes())
    assert a != b


def test_fault_in_program_output_is_caught():
    """A sampler that returned a word with a square would fail its check."""
    a, c, length = workloads.SHORT
    bad_word = workloads.words.parse_word("0" * length, a)
    report = SimpleNamespace(converged=True, result=bad_word, resample_count=0)
    assert workloads._check_sample(a, c, length, report)


def test_plans_are_seeded(tmp_path):
    for name in ("scan", "certify", "extend"):
        one = [t.label for t in workloads.PLANS[name](3, tmp_path)]
        two = [t.label for t in workloads.PLANS[name](3, tmp_path)]
        assert one == two
    assert [t.label for t in workloads.PLANS["scan"](3, tmp_path)] != \
        [t.label for t in workloads.PLANS["scan"](4, tmp_path)]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLANS)

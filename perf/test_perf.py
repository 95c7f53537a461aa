"""Tests of the benchmark's own machinery: ``python -m pytest perf/``.

Not part of the repo's tier-1 suite; runs in a few seconds.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
from gate import check_answer, check_records, check_references, evaluate  # noqa: E402
from serve_load import Block, Record, median_over_blocks, open_loop  # noqa: E402
from summary import percentile, spread  # noqa: E402
from timing import TimingIndex  # noqa: E402
from workloads import Item, Row  # noqa: E402

from repro.algorithms.base import SearchContext  # noqa: E402
from repro.algorithms.registry import ALGORITHM_NAMES, make_algorithm  # noqa: E402
from repro.data.generators import uniform_dataset  # noqa: E402
from repro.data.queries import generate_queries  # noqa: E402
from repro.errors import CoSKQError  # noqa: E402
from repro.index.protocol import SpatialTextIndex  # noqa: E402

# -- nearest-rank percentile ---------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    # rank = ceil(0.95 * 10) = 10: the maximum of ten samples
    assert percentile(list(range(10)), 95) == 9
    assert percentile([7.0], 1) == 7.0


@pytest.mark.parametrize("pct", [0, 101])
def test_percentile_rejects_out_of_range(pct):
    with pytest.raises(ValueError):
        percentile([1.0], pct)


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0]) == 0.0
    q1, q3 = 9.25, 10.75  # statistics.quantiles([9, 10, 10, 11], n=4)
    assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx((q3 - q1) / 10.0)


# -- open-loop lateness under a fake clock ------------------------------------------


class FakeClock:
    """Virtual time: ``sleep`` and the fake ``send`` advance it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def sender(self, service_s: float):
        def send(request: int):
            self.sleep(service_s)
            return 200, b"{}"

        return send


def test_open_loop_charges_lateness_to_queued_requests():
    clock = FakeClock()
    # 10 requests/s but each takes 0.25 s: request i is sent when request
    # i-1 finishes, 0.15·i s after it was due.
    results = open_loop(list(range(6)), 10.0, clock.sender(0.25), clock=clock, sleep=clock.sleep)
    for i, (due, sent, done, response) in enumerate(results):
        assert due == pytest.approx(0.1 * i)
        assert sent - due == pytest.approx(0.15 * i)
        assert done - due == pytest.approx(0.25 + 0.15 * i)
        assert response == (200, b"{}")


def test_open_loop_is_on_time_when_the_server_keeps_up():
    clock = FakeClock()
    results = open_loop(list(range(5)), 10.0, clock.sender(0.05), clock=clock, sleep=clock.sleep)
    assert [sent - due for due, sent, _, _ in results] == pytest.approx([0.0] * 5)
    assert [done - due for due, _, done, _ in results] == pytest.approx([0.05] * 5)


# -- speed-normalized latencies ---------------------------------------------------------


def test_speed_factors_use_the_median_probe_around_each_call():
    ref = timing.PROBE_REF_NS
    samples = [ref, ref, 2 * ref, ref, ref, 4 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    # window of call 0: samples[0:5] -> median ref; call 10: samples[6:11] -> 2 ref
    assert timing.speed_factors(samples, [0, 10]) == [1.0, 0.5]


def test_probe_ns_times_the_second_of_two_runs():
    ticks = iter([100, 350])
    assert timing.probe_ns(clock=lambda: next(ticks)) == 250


def test_timed_start_scales_the_child_cpu_time_by_the_calibration(monkeypatch):
    ref = timing.CALIBRATION_REF_S
    calibrations = iter([1.5 * ref, 2.5 * ref])
    monkeypatch.setattr(timing, "calibration_cpu_s", lambda: next(calibrations))
    monkeypatch.setattr(timing, "cpu_seconds", lambda pid: {42: 3.0}[pid])
    child = SimpleNamespace(pid=42)
    ticks = iter([10.0, 13.0])
    monkeypatch.setattr(timing.time, "perf_counter", lambda: next(ticks))
    # 3 CPU seconds at half the reference speed: 1.5 reference seconds;
    # 3 s of wall time, as measured
    assert timing.timed_start(lambda: child) == (child, pytest.approx(1.5), 3.0)


def test_cpu_seconds_and_the_calibration_job_read_a_real_process():
    assert timing.cpu_seconds(os.getpid()) > 0.0
    assert 0.0 < timing.calibration_cpu_s() < 30.0


def test_latency_by_query_takes_the_median_pass_and_keeps_every_failure():
    ok, failed = None, "DeadlineExceededError: late"
    records = [
        [0, 3_000_000, 1.0, [1], {}, ok],
        [1, 5_000_000, 1.0, [1], {}, ok],
        [0, 2_000_000, 1.0, [1], {}, ok],
        [1, 4_000_000, None, None, {}, failed],
        [0, 9_000_000, 1.0, [1], {}, ok],
    ]
    factors = [1.0, 1.0, 2.0, 1.0, 0.5]
    # query 0 tries: 3, 4, 4.5 reference ms
    assert run.latency_by_query(records, factors) == {0: 4.0, 1: float("inf")}
    metrics = run.latency_metrics([4.0, 1.0, float("inf")])
    assert metrics["latency_p50_ms"] == (4.0, 3)
    assert metrics["latency_p95_ms"] == (float("inf"), 3)
    assert metrics["throughput_qps"] == (400.0, 2)


def _block(latencies_ms, status=200, speed=1.0):
    records = [
        Record("warmup", 0, 0.0, 0.0, 0.001, 200, None, speed),
        *(
            Record("nominal", i, 1.0, 1.0, 1.0 + ms / 1000.0, status, None, speed)
            for i, ms in enumerate(latencies_ms)
        ),
    ]
    return Block(0.1, 0.1, records, None, 0)


def test_median_over_blocks_pairs_requests_by_position():
    blocks = [_block([5.0, 1.0]), _block([2.0, 3.0]), _block([2.0, 8.0], speed=0.5)]
    assert median_over_blocks(blocks, "nominal", lambda r: r.latency_ms) == pytest.approx(
        [2.0, 3.0]
    )
    blocks[1] = _block([0.5, 0.5], status=503)
    assert median_over_blocks(blocks, "nominal", lambda r: r.latency_ms) == [
        float("inf"),
        float("inf"),
    ]


# -- TimingIndex ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    dataset = uniform_dataset(120, 12, mean_keywords=2.5, seed=11, name="tiny")
    queries = generate_queries(dataset, 3, 4, seed=9)
    context = SearchContext(dataset)
    return context, queries


def test_timing_index_conforms_to_the_protocol(tiny):
    context, _ = tiny
    assert isinstance(TimingIndex(context.index), SpatialTextIndex)


def _outcome(solver, query):
    try:
        result = solver.solve(query)
    except CoSKQError as err:
        return type(err).__name__
    return result.cost, result.object_ids


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_timing_index_answers_match_the_bare_index(tiny, name):
    context, queries = tiny
    timer = TimingIndex(context.index)
    timed = context.with_index(timer)
    for query in queries:
        assert _outcome(make_algorithm(name, timed), query) == _outcome(
            make_algorithm(name, context), query
        )
    timer.take()
    assert timer.take() == {}


def test_timing_index_times_each_next_of_the_lazy_iterator(tiny):
    context, queries = tiny
    ticks = iter(range(0, 10**9, 10))
    timer = TimingIndex(context.index, clock=lambda: next(ticks))
    query = queries[0]
    rows = list(timer.nearest_relevant_iter(query.location, query.keywords))
    tally = timer.take()["nearest_relevant_iter"]
    assert tally["calls"] == 1
    assert tally["items"] == len(rows) > 0
    # one 10-tick interval for the call, one per next() incl. the last
    assert tally["busy_ns"] == 10 * (len(rows) + 2)


# -- the correctness gate -----------------------------------------------------------------

ROWS = [
    Row(0.0, 0.0, frozenset({"a"})),
    Row(1.0, 0.0, frozenset({"b"})),
    Row(0.0, 1.0, frozenset({"c"})),
]
ITEM = Item("maxsum-exact", 0.0, 0.0, ("a", "b"))
COST = evaluate("maxsum", 0.0, 0.0, [(0.0, 0.0), (1.0, 0.0)])


def test_gate_passes_a_correct_answer():
    assert COST == pytest.approx(1.0)
    assert check_answer(ROWS, ITEM, COST, [0, 1]) is None


def test_gate_trips_on_a_doctored_cost():
    assert "re-evaluated" in check_answer(ROWS, ITEM, COST * 1.001, [0, 1])
    violations = check_records(ROWS, [ITEM], [[0, 1, COST - 0.01, [0, 1], {}, None]])
    assert len(violations) == 1


def test_gate_trips_on_an_infeasible_set():
    assert "infeasible" in check_answer(ROWS, ITEM, 0.0, [0])
    assert "out of range" in check_answer(ROWS, ITEM, COST, [0, 7])


def test_gate_skips_failed_queries_but_checks_the_rest():
    records = [[0, 1, None, None, {}, "DeadlineExceededError: late"]]
    assert check_records(ROWS, [ITEM], records) == []


def test_gate_checks_reference_samples():
    differing = [[0, COST, [0, 1], COST, [0, 1, 2]]]
    violations, _ = check_references("single-tree", ROWS, [ITEM], differing)
    assert violations
    violations, _ = check_references(
        "single-tree", ROWS, [ITEM], [[0, COST, [0, 1], COST, [0, 1]]]
    )
    assert violations == []
    appro = Item("maxsum-appro", 0.0, 0.0, ("a", "b"))
    violations, ratios = check_references(
        "counterpart", ROWS, [appro], [[0, COST, [0, 1], COST, [0, 1]]]
    )
    assert violations == [] and ratios == [1.0]


# -- compare.py ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "same"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", "worse"),
        ([5.0, 10.0, 15.0, 10.0], [10.0, 10.0, 10.0, 10.0], "lower", "unresolved"),
        # wide spread, but every new run beats every base run
        ([20.0, 30.0, 40.0], [5.0, 10.0, 15.0], "lower", "better"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, 0.1, better) == expected


def _results(tmp_path: Path, name: str, value: float, failed: int = 0) -> str:
    path = tmp_path / name
    path.mkdir()
    document = {
        "workloads": {
            "w": {
                "attempted": 100,
                "failed": failed,
                "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
            }
        }
    }
    (path / "results.json").write_text(json.dumps(document))
    return str(path)


def test_compare_exits_1_on_a_regression(tmp_path, capsys):
    base = [_results(tmp_path, "a%d" % i, 10.0 + 0.01 * i) for i in range(3)]
    slower = [_results(tmp_path, "b%d" % i, 13.0 + 0.01 * i) for i in range(3)]
    same = [_results(tmp_path, "c%d" % i, 10.02 + 0.01 * i) for i in range(3)]
    failing = [_results(tmp_path, "d%d" % i, 10.0, failed=1) for i in range(3)]
    assert compare.main(["--base", *base, "--new", *slower]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(["--base", *base, "--new", *same]) == 0
    assert compare.main(["--base", *base, "--new", *failing]) == 1

"""Chaos under traffic: the serving daemon's headline acceptance test.

A real daemon (ephemeral port, threaded HTTP stack) is hammered by the
load generator with >= 200 concurrent requests while a
:class:`~repro.parallel.spec.ChaosSpec` injects faults server-side and
per-request deadlines stay tight.  The daemon must:

- never crash and never leak a non-taxonomy 5xx (zero ``internal``
  outcomes);
- never return an infeasible set — every 200 covers its query keywords;
- serialize provenance on every degraded answer, naming the stage that
  answered and the stages that failed;
- keep ``/stats`` outcome totals equal to the client-side tally
  **bit-for-bit** (every response was counted before it was written).
"""

from __future__ import annotations

import json
import urllib.request
from collections import Counter

import pytest

from repro.data.generators import uniform_dataset
from repro.parallel.spec import ChaosSpec
from repro.serve import OUTCOMES, ServerConfig, create_server
from repro.serve.client import LoadClient, random_workload

REQUESTS = 220
CONCURRENCY = 8


@pytest.fixture(scope="module")
def chaos_run():
    """One shared chaos-under-traffic run; every test inspects its ledger."""
    dataset = uniform_dataset(200, 16, mean_keywords=2.5, seed=31, name="chaos")
    config = ServerConfig(
        port=0,
        chain="maxsum-exact,maxsum-appro,nn-set",
        deadline_ms=2.0,
        max_deadline_ms=2.0,
        max_retries=1,
        max_inflight=4,  # small bound: admission sheds under this load
        retry_after_s=0.001,
        # faults AND slowness: every index call stalls 5ms, so the 2ms
        # deadline genuinely expires and in-flight requests pile up past
        # max_inflight (otherwise this dataset answers too fast to
        # exercise shedding at all).  A stage reads N(q) and its owners
        # from one stream, so most requests make only a few index calls
        # and every one of them has to stall.
        chaos=ChaosSpec(seed=5, fail_rate=0.2, latency_s=0.005, latency_every=1),
    )
    server = create_server(dataset, config)
    server.serve_background()
    client = LoadClient(
        server.url,
        seed=13,
        max_retries=6,
        backoff_base_s=0.001,
        backoff_cap_s=0.01,
    )
    payloads = random_workload(client, REQUESTS, seed=13)
    records = client.run(payloads, concurrency=CONCURRENCY)
    # raw response bodies for the provenance/taxonomy assertions
    stats = client.get_json("/stats")
    health = client.get_json("/healthz")
    yield {
        "server": server,
        "client": client,
        "records": records,
        "stats": stats,
        "health": health,
    }
    server.shutdown()
    server.server_close()


class TestChaosUnderTraffic:
    def test_every_query_got_an_http_answer(self, chaos_run):
        records = chaos_run["records"]
        assert len(records) == REQUESTS
        assert all(record.status != 0 for record in records), "transport errors"
        assert chaos_run["client"].summary.transport_errors == 0

    def test_zero_internal_outcomes(self, chaos_run):
        assert chaos_run["stats"]["by_outcome"]["internal"] == 0
        assert chaos_run["client"].summary.responses_by_outcome["internal"] == 0

    def test_zero_infeasible_answers(self, chaos_run):
        assert chaos_run["client"].summary.infeasible_answers == 0
        for record in chaos_run["records"]:
            if record.status == 200:
                assert record.feasible is True

    def test_chaos_actually_fired(self, chaos_run):
        """The run must be a real drill: faults injected, degradation seen."""
        by_failure = chaos_run["stats"]["by_failure_class"]
        assert by_failure.get("InjectedFaultError", 0) > 0
        assert by_failure.get("DeadlineExceededError", 0) > 0
        degraded = sum(1 for r in chaos_run["records"] if r.degraded)
        assert degraded > 0

    def test_load_was_actually_shed(self, chaos_run):
        """max_inflight=4 under 8 workers must shed at least once."""
        assert chaos_run["stats"]["by_outcome"]["shed"] > 0
        assert chaos_run["stats"]["admission"]["shed"] > 0

    def test_degraded_answers_carry_provenance(self, chaos_run):
        degraded = [r for r in chaos_run["records"] if r.degraded]
        for record in degraded:
            assert record.answered_by, "degraded answer without a stage name"

    def test_stats_reconcile_bit_for_bit(self, chaos_run):
        """Server-side outcome totals == client-side tally, exactly."""
        server_side = chaos_run["stats"]["by_outcome"]
        client_side = chaos_run["client"].summary.responses_by_outcome
        assert set(server_side) == set(OUTCOMES)
        expected = {
            outcome: client_side.get(outcome, 0) for outcome in OUTCOMES
        }
        assert server_side == expected
        assert chaos_run["stats"]["total"] == sum(client_side.values())

    def test_status_totals_reconcile_too(self, chaos_run):
        server_side = chaos_run["stats"]["by_status"]
        client_side = chaos_run["client"].summary.responses_by_status
        assert {int(k): v for k, v in server_side.items() if v} == dict(
            client_side
        )

    def test_server_still_healthy_after_the_storm(self, chaos_run):
        health = chaos_run["health"]
        assert health["status"] == "ok"
        assert health["inflight"] == 0

    def test_failed_responses_carry_taxonomy(self, chaos_run):
        """Re-drive a few queries and read the raw 5xx bodies: every one
        names a typed failure class, never a bare 500."""
        server = chaos_run["server"]
        payload = json.dumps(
            {
                "x": 500.0,
                "y": 500.0,
                "keywords": ["definitely-not-a-word"],
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            server.url + "/query",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=5)
            raise AssertionError("expected an HTTP error status")
        except urllib.error.HTTPError as err:
            body = json.loads(err.read().decode("utf-8"))
        assert body["error"]["type"] == "UnknownKeywordError"

    def test_latency_percentiles_populated(self, chaos_run):
        latency = chaos_run["stats"]["latency"]
        assert latency["window"] > 0
        assert latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]


class TestChaosDeterminismKnobs:
    def test_per_request_plans_differ(self):
        spec = ChaosSpec(seed=5, fail_rate=0.2)
        plans = [spec.plan_for(i) for i in range(4)]
        assert len({id(p) for p in plans}) == 4

    def test_outcome_counter_closes_the_books(self, chaos_run):
        """No outcome outside the taxonomy ever got counted."""
        counted = Counter(chaos_run["stats"]["by_outcome"])
        assert set(counted) <= set(OUTCOMES)
        assert sum(counted.values()) == chaos_run["stats"]["total"]

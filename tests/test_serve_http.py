"""The serving daemon's request path: outcomes, statuses, endpoints.

Most coverage drives :class:`repro.serve.QueryService` directly (no
sockets); one class exercises the real HTTP stack on an ephemeral port.
"""

from __future__ import annotations

import json

import pytest

from repro.data.generators import uniform_dataset
from repro.errors import InvalidParameterError
from repro.parallel.spec import ChaosSpec
from repro.serve import (
    OUTCOME_STATUS,
    OUTCOMES,
    QueryService,
    ServerConfig,
    create_server,
)
from repro.serve.service import STATUS_DEADLINE


@pytest.fixture(scope="module")
def serve_dataset():
    return uniform_dataset(150, 14, mean_keywords=2.5, seed=19, name="serve")


@pytest.fixture(scope="module")
def frequent_words(serve_dataset):
    return [
        serve_dataset.vocabulary.word_of(k)
        for k in serve_dataset.keywords_by_frequency()[:4]
    ]


def query_body(words, **extra):
    payload = {"x": 500.0, "y": 500.0, "keywords": list(words)}
    payload.update(extra)
    return json.dumps(payload).encode("utf-8")


class TestOutcomeTable:
    def test_every_outcome_has_a_status(self):
        assert set(OUTCOME_STATUS) == set(OUTCOMES)

    def test_statuses_are_distinct_per_failure_class(self):
        failure_statuses = [
            status
            for outcome, status in OUTCOME_STATUS.items()
            if outcome not in ("ok", "degraded")
        ]
        assert len(failure_statuses) == len(set(failure_statuses))


class TestQueryService:
    def test_clean_answer_matches_direct_solve(self, serve_dataset, frequent_words):
        from repro.algorithms.base import SearchContext
        from repro.algorithms.registry import make_algorithm
        from repro.model.query import Query

        service = QueryService(
            serve_dataset, ServerConfig(cache_mode="none", deadline_ms=None)
        )
        response = service.handle_query(query_body(frequent_words[:2]))
        assert response.status == 200
        assert response.outcome == "ok"
        direct = make_algorithm(
            "maxsum-exact", SearchContext(serve_dataset)
        ).solve(
            Query.from_words(
                500.0, 500.0, frequent_words[:2], serve_dataset.vocabulary
            )
        )
        assert response.payload["cost"] == direct.cost
        assert [o["oid"] for o in response.payload["objects"]] == list(
            direct.object_ids
        )

    def test_answer_covers_the_query_keywords(self, serve_dataset, frequent_words):
        service = QueryService(serve_dataset, ServerConfig())
        response = service.handle_query(query_body(frequent_words[:3]))
        covered = set()
        for obj in response.payload["objects"]:
            covered.update(obj["keywords"])
        assert set(frequent_words[:3]) <= covered

    def test_degraded_response_serializes_provenance(
        self, serve_dataset, frequent_words
    ):
        service = QueryService(
            serve_dataset,
            ServerConfig(cache_mode="none", deadline_ms=None, work_budget=3),
        )
        response = service.handle_query(query_body(frequent_words[:3]))
        assert response.status == 200
        assert response.outcome == "degraded"
        provenance = response.payload["provenance"]
        assert provenance["degraded"] is True
        assert provenance["answered_by"] == "nn-set"
        failed_stages = [f["stage"] for f in provenance["failures"]]
        assert failed_stages == ["maxsum-exact", "maxsum-appro"]
        assert all(
            f["error_type"] == "BudgetExceededError"
            for f in provenance["failures"]
        )

    def test_bad_json_is_bad_request(self, serve_dataset):
        service = QueryService(serve_dataset, ServerConfig())
        response = service.handle_query(b"{not json")
        assert response.status == 400
        assert response.outcome == "bad_request"
        assert response.payload["error"]["type"] == "InvalidParameterError"

    @pytest.mark.parametrize(
        "body",
        [
            b"[]",
            b'{"x": 1.0, "y": 2.0}',
            b'{"x": 1.0, "y": 2.0, "keywords": []}',
            b'{"x": 1.0, "y": 2.0, "keywords": [3]}',
            b'{"x": "a", "y": 2.0, "keywords": ["w"]}',
            b'{"x": true, "y": 2.0, "keywords": ["w"]}',
            b'{"x": 1.0, "y": 2.0, "keywords": ["w"], "deadline_ms": "fast"}',
            b'{"x": 1.0, "y": 2.0, "keywords": ["w"], "max_retries": 99}',
            b'{"x": NaN, "y": 2.0, "keywords": ["w0000"]}',
            b'{"x": 1.0, "y": Infinity, "keywords": ["w0000"]}',
            b'{"x": -Infinity, "y": 2.0, "keywords": ["w0000"]}',
            b'{"x": 1e999, "y": 2.0, "keywords": ["w0000"]}',
        ],
    )
    def test_malformed_requests_are_bad_request(self, serve_dataset, body):
        service = QueryService(serve_dataset, ServerConfig())
        response = service.handle_query(body)
        assert response.status == 400
        assert response.outcome == "bad_request"

    def test_unknown_chain_name_is_bad_request(self, serve_dataset, frequent_words):
        service = QueryService(serve_dataset, ServerConfig())
        response = service.handle_query(
            query_body(frequent_words[:1], chain="no-such-solver")
        )
        assert response.status == 400
        assert "no-such-solver" in response.payload["error"]["message"]

    def test_unknown_keyword_is_404(self, serve_dataset):
        service = QueryService(serve_dataset, ServerConfig())
        response = service.handle_query(query_body(["never-a-word"]))
        assert response.status == 404
        assert response.outcome == "unknown_keyword"
        assert response.payload["error"]["type"] == "UnknownKeywordError"

    def test_infeasible_query_is_422(self):
        dataset = uniform_dataset(50, 8, mean_keywords=2.0, seed=3, name="ghost")
        dataset.vocabulary.add("ghostword")  # in the vocabulary, on no object
        service = QueryService(dataset, ServerConfig())
        response = service.handle_query(query_body(["ghostword"]))
        assert response.status == 422
        assert response.outcome == "infeasible"

    def test_drain_mode_sheds_with_retry_after(self, serve_dataset, frequent_words):
        service = QueryService(
            serve_dataset, ServerConfig(max_inflight=0, retry_after_s=0.25)
        )
        response = service.handle_query(query_body(frequent_words[:1]))
        assert response.status == 429
        assert response.outcome == "shed"
        assert response.retry_after_s == 0.25
        assert service.stats.snapshot()["by_outcome"]["shed"] == 1
        assert service.admission.snapshot()["shed"] == 1

    def test_all_deadline_failure_maps_to_504(self, serve_dataset, frequent_words):
        config = ServerConfig(
            chain="maxsum-exact,maxsum-appro",
            deadline_ms=0.0001,
            max_deadline_ms=0.0001,
            always_answer=False,
            cache_mode="none",
        )
        service = QueryService(serve_dataset, config)
        response = service.handle_query(query_body(frequent_words[:2]))
        assert response.status == STATUS_DEADLINE
        assert response.outcome == "failed"
        failures = response.payload["error"]["failures"]
        assert failures and all(
            f["error_type"] == "DeadlineExceededError" for f in failures
        )

    def test_every_request_is_counted_exactly_once(
        self, serve_dataset, frequent_words
    ):
        service = QueryService(serve_dataset, ServerConfig())
        bodies = [
            query_body(frequent_words[:2]),
            b"{bad",
            query_body(["never-a-word"]),
            query_body(frequent_words[:1]),
        ]
        for body in bodies:
            service.handle_query(body)
        snapshot = service.stats.snapshot()
        assert snapshot["total"] == len(bodies)
        assert sum(snapshot["by_outcome"].values()) == len(bodies)

    def test_result_cache_serves_repeats(self, serve_dataset, frequent_words):
        service = QueryService(
            serve_dataset, ServerConfig(cache_mode="full")
        )
        body = query_body(frequent_words[:2])
        first = service.handle_query(body)
        second = service.handle_query(body)
        assert first.payload["cost"] == second.payload["cost"]
        stats = service.result_cache.stats_dict()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_degraded_answer_is_not_cached(self, serve_dataset, frequent_words):
        from repro.algorithms.base import SearchContext
        from repro.algorithms.registry import make_algorithm
        from repro.model.query import Query

        service = QueryService(
            serve_dataset, ServerConfig(cache_mode="full", deadline_ms=None)
        )
        starved = service.handle_query(
            query_body(frequent_words[:3], work_budget=3)
        )
        assert starved.outcome == "degraded"
        # The cache key holds no budget: a cached degraded answer would
        # be served to this unbounded repeat.
        response = service.handle_query(query_body(frequent_words[:3]))
        direct = make_algorithm("maxsum-exact", SearchContext(serve_dataset)).solve(
            Query.from_words(
                500.0, 500.0, frequent_words[:3], serve_dataset.vocabulary
            )
        )
        assert response.outcome == "ok"
        assert response.payload["cost"] == direct.cost
        assert service.result_cache.stats_dict()["hits"] == 0

    def test_chaos_with_result_cache_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServerConfig(cache_mode="full", chaos=ChaosSpec(fail_rate=0.5))

    def test_cli_refuses_result_cache_under_chaos(self, monkeypatch, capsys):
        """The CLI applies the config's rule: no silent downgrade."""
        from repro.serve import cli

        argv = ["--demo", "--cache", "full", "--chaos-fail-rate", "0.1"]
        with pytest.raises(InvalidParameterError):
            cli.config_from_args(cli.build_parser().parse_args(argv))

        def refuse_to_bind(*args, **kwargs):
            raise AssertionError("main bound a port for a refused config")

        monkeypatch.setattr(cli, "create_server", refuse_to_bind)
        assert cli.main(argv) == 1
        assert "result caching under chaos" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", ["deadline_ms", "max_deadline_ms", "retry_after_s"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_envelope_is_rejected(self, field, value):
        # NaN slips past ``<= 0`` and +inf turns the bound off.
        with pytest.raises(InvalidParameterError):
            ServerConfig(**{field: value})

    def test_per_request_deadline_is_clamped(self, serve_dataset, frequent_words):
        config = ServerConfig(max_deadline_ms=50.0)
        assert config.clamp_deadline(10.0) == 10.0
        assert config.clamp_deadline(10_000.0) == 50.0
        assert config.clamp_deadline(None) == config.deadline_ms


class TestHttpEndpoints:
    @pytest.fixture(scope="class")
    def server(self, serve_dataset):
        server = create_server(serve_dataset, ServerConfig(port=0))
        server.serve_background()
        yield server
        server.shutdown()
        server.server_close()

    @pytest.fixture(scope="class")
    def client(self, server):
        from repro.serve.client import LoadClient

        return LoadClient(server.url, seed=7)

    def test_healthz(self, client, serve_dataset):
        health = client.get_json("/healthz")
        assert health["status"] == "ok"
        assert health["objects"] == len(serve_dataset)
        assert len(health["bounds"]) == 4

    def test_query_roundtrip(self, client, frequent_words):
        record = client.query(
            {"x": 500.0, "y": 500.0, "keywords": frequent_words[:2]}
        )
        assert record.status == 200
        assert record.outcome == "ok"
        assert record.feasible is True

    def test_error_statuses_carry_json_taxonomy(self, client):
        status, body, _ = client._post_query({"x": 1.0, "y": 2.0, "keywords": [3]})
        assert status == 400
        assert body["error"]["type"] == "InvalidParameterError"

    def test_stats_shape(self, client):
        stats = client.get_json("/stats")
        assert set(stats["by_outcome"]) == set(OUTCOMES)
        assert "latency" in stats and "admission" in stats and "cache" in stats

    def test_vocabulary_endpoint(self, client):
        vocabulary = client.get_json("/vocabulary?limit=5")
        assert len(vocabulary["words"]) == 5
        counts = [entry["objects"] for entry in vocabulary["words"]]
        assert counts == sorted(counts, reverse=True)

    def test_keep_alive_responses_are_single_writes(self, serve_dataset, frequent_words):
        """Headers and body leave together, so keep-alive never stalls."""
        import http.client

        from repro.serve.httpd import CoSKQRequestHandler, CoSKQServer

        writes = []

        class CountingWriter:
            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                writes.append(len(data))
                return self.inner.write(data)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        class CountingHandler(CoSKQRequestHandler):
            def setup(self):
                super().setup()
                self.wfile = CountingWriter(self.wfile)

        server = CoSKQServer(
            ("127.0.0.1", 0), QueryService(serve_dataset, ServerConfig())
        )
        server.RequestHandlerClass = CountingHandler
        server.serve_background()
        try:
            connection = http.client.HTTPConnection(*server.server_address[:2])
            for _ in range(2):
                connection.request(
                    "POST", "/query", body=query_body(frequent_words[:2])
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["outcome"] == "ok"
            connection.close()
        finally:
            server.shutdown()
            server.server_close()
        assert len(writes) == 2  # one per response

    def test_refused_body_closes_the_connection(self, server, frequent_words):
        """An over-limit body is never parsed as the next request."""
        import socket

        from repro.serve.httpd import MAX_BODY_BYTES

        valid = query_body(frequent_words[:2])
        stream = (
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1)
            + b"x" * 70_000
            + b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
            % len(valid)
            + valid
        )
        received = b""
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(stream)
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    break  # closed with the body unread: end of stream
                if not chunk:
                    break
                received += chunk
        head, _, rest = received.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        length = int(headers["Content-Length"])
        assert status_line.startswith("HTTP/1.1 400")
        assert headers["Connection"] == "close"
        assert json.loads(rest[:length])["outcome"] == "bad_request"
        assert rest[length:] == b""  # no second response

    def test_unknown_paths_are_json_404(self, client):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as info:
            client.get_json("/nope")
        assert info.value.code == 404
        assert json.loads(info.value.read())["error"]["type"] == "NotFound"

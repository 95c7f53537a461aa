# Convenience targets for the CoSKQ reproduction.

.PHONY: install test lint lint-fast check contracts chaos serve-check parallel-check kernels-check signatures-check shard-check shard-bench bench bench-smoke bench-check figures full-experiments clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/

# Repo-specific static analysis, including the interprocedural dataflow
# pass R10-R11 (docs/STATIC_ANALYSIS.md).  Per-module summaries are
# cached in .coskq_lint_cache.json, so warm runs stay fast.
lint:
	PYTHONPATH=src python -m repro.analysis --strict

# Syntactic rules only (R1-R9): skips the dataflow pass for quick loops.
lint-fast:
	PYTHONPATH=src python -m repro.analysis --no-dataflow

# Everything a PR must keep green: the linter (incl. R6), the tier-1
# suite, the runtime-contract run, and the benchmark's own tests (perf/
# calls the program's public surface, so breaking that surface fails
# here).
check: lint
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) contracts
	python -m pytest perf/ -q

# Runtime contracts (docs/STATIC_ANALYSIS.md) over the differential
# matrix's suites that solve with every registered algorithm: each
# solve() is checked for feasibility, honest cost, and optimality or its
# ratio.
contracts:
	REPRO_CHECK_CONTRACTS=1 PYTHONPATH=src python -m pytest -x -q \
		tests/test_differential_matrix.py tests/test_registry_conformance.py \
		tests/test_differential_shard.py tests/test_kernels_differential.py

# The resilience/chaos suite alone (docs/ROBUSTNESS.md).
chaos:
	PYTHONPATH=src python -m pytest -q tests/test_exec_policy.py \
		tests/test_exec_fallback.py tests/test_exec_chaos.py

# The serving gate (docs/SERVING.md): boots the daemon on an ephemeral
# port and drives a mixed clean + chaos load through the real HTTP
# stack — zero 5xx-without-taxonomy, zero infeasible answers, and
# /stats totals reconciling bit-for-bit with the client-side tally —
# and holds /query to coskq-query's answers for the same flags.
serve-check:
	PYTHONPATH=src python -m pytest -q tests/test_serve_http.py \
		tests/test_serve_client.py tests/test_serve_chaos.py \
		tests/test_cache_concurrency.py tests/test_entry_points.py

# The parallel-engine gate: the differential matrix's forked-pool and
# result-cache cells, the batch and chaos property suites, and the
# entry points that share its recipe and runtime (docs/PARALLELISM.md).
parallel-check:
	PYTHONPATH=src python -m pytest -q tests/test_differential_parallel.py \
		tests/test_metamorphic_cache.py tests/test_exec_batch_properties.py \
		tests/test_exec_chaos.py tests/test_entry_points.py

# The kernels gate: the flat-kernel property suite (each kernel against
# a naive math.hypot loop), the cover search that runs on the kernels
# over owner-stream indices (its unit tests and its properties against
# the brute-force cover enumeration), and the differential matrix's
# plain cell holding every solver to its golden answers over the
# keyword trees (docs/PERFORMANCE.md).
kernels-check:
	PYTHONPATH=src python -m pytest -q tests/test_kernels_flat.py \
		tests/test_cover.py tests/test_owner_engine_internals.py \
		tests/test_kernels_differential.py

# The signatures gate: mask/set bijection properties, the keyword-tree
# vs linear-scan index parity suite, and the differential matrix's
# LinearScanIndex cell holding every solver to its golden answers
# (docs/PERFORMANCE.md).
signatures-check:
	PYTHONPATH=src python -m pytest -q tests/test_signatures.py \
		tests/test_index_parity.py tests/test_signatures_differential.py

# The sharding gate: the differential matrix's cells proving the
# scatter-gather engine and the ShardedIndex facade bit-identical to a
# single index for every solver and cost, and the shard layer's tests
# of per-shard chaos and threads (docs/SHARDING.md).
shard-check:
	PYTHONPATH=src python -m pytest -q tests/test_differential_shard.py \
		tests/test_bench_macro_diff.py

# Regenerate BENCH_shard.json: paired sharded-vs-single cells at
# GN-100k and GN-1M (several minutes; ~80 MB of dataset cache).
shard-bench:
	PYTHONPATH=src python -m repro.tools.macro_cli run --profile shard \
		--out BENCH_shard.json

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# Record a macro-benchmark baseline: the pinned smoke profile through
# the whole stack (solvers, fallback chain, parallel batches, sharded
# engine, cold and warm caches), one summary JSON out (docs/BENCHMARKS.md).
bench-smoke:
	PYTHONPATH=src python -m repro.tools.macro_cli run --profile smoke \
		--out bench_macro_smoke.json

# The perf gate: re-run the smoke profile and diff against the recorded
# baseline.  Exit 1 when a latency percentile or throughput regresses
# past the noise threshold; run `make bench-smoke` first to (re)record.
bench-check:
	PYTHONPATH=src python -m repro.tools.macro_cli run --profile smoke \
		--out bench_macro_candidate.json --quiet
	PYTHONPATH=src python -m repro.tools.macro_cli diff \
		bench_macro_smoke.json bench_macro_candidate.json

# Quick-scale paper reports + SVG figures under docs/figures/.
figures:
	coskq-bench all --quick --svg docs/figures

# Full paper-shaped sweeps (an hour-plus; writes to bench_full/).
full-experiments:
	mkdir -p bench_full
	for e in $$(coskq-bench list); do \
		coskq-bench $$e > bench_full/$$e.txt 2>&1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/reports
	find . -name __pycache__ -type d -exec rm -rf {} +

# Convenience targets; everything is plain pip + pytest underneath.

.PHONY: install test test-resilience test-chaos test-service serve bench \
	bench-json bench-compare bench-large perf perf-check examples lint \
	lint-fix typecheck import-graph

# Compare the two newest BENCH_*.json snapshots, newest by the datetime
# each records (override with BENCH_OLD=... BENCH_NEW=...; an omitted
# one is picked by scripts/bench_compare.py); fails on >10% kernel
# regressions.  Adjacent snapshots share machine conditions, so the diff
# isolates the latest change instead of cumulative day-to-day drift.

install:
	pip install -e .

test:
	pytest tests/

# Guard and checkpoint/resume tests only (the resilience layer).
test-resilience:
	pytest tests/runtime tests/experiments/test_resume.py

# The chaos suite: a deadline expiring mid-grid and its resume, memory
# budgets, plus the degradation-ladder acceptance tests.
test-chaos:
	pytest tests/runtime/test_guard_chaos.py -v

# The simulation service: job store, scheduler, result cache, HTTP
# daemon, plus its satellite (journal locking).
test-service:
	pytest tests/service tests/runtime/test_journal_lock.py -v

# Run the job daemon locally.  SERVE_STORE defaults to ./service-store;
# port 0 picks a free port and writes it to $(SERVE_STORE)/endpoint.json.
SERVE_STORE ?= service-store
SERVE_PORT ?= 0
serve:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro.cli serve --store $(SERVE_STORE) --port $(SERVE_PORT)

# Every kernel timing plus one timed run of each experiment-registry
# artefact (benchmarks/bench_paper.py: the paper's figures, tables and
# extensions, each held to its shape claims).
bench:
	pytest benchmarks/ --benchmark-only

# Seed/extend the perf trajectory: kernel benches only, machine-readable,
# dated so successive runs line up chronologically at the repo root.
bench-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest $(wildcard benchmarks/bench_kernel_*.py) --benchmark-only \
		--benchmark-json=BENCH_$(shell date +%Y%m%d).json

# --require guards the gate's coverage: the newest snapshot must still
# contain the core kernels, the per-policy kernels (default-policy
# variants included) and the per-backend kernels or the comparison
# fails outright.  --stat min because microsecond benches on shared
# machines have mean runtimes dominated by scheduler outliers; --only
# kernel because the gate is a *kernel* regression gate (artifact
# benches run once and can't clear a 10% bar on shared hardware).
# --speedup pins three headlines in the same snapshot: batched trees and
# the all-destination structure build (warm plus arena pack) on the cext
# backend each at least 2x faster than numpy, and the batched
# multi-origin attack kernel at least 3x faster than the per-pair
# scalar reference (it measures ~40-100x; 3x is the do-not-regress bar).
# The trees pin was 3.0 while numpy ran SecP/TB selection over every
# stacked row.  Since the one-/multi-candidate split (DESIGN.md §10
# item 3) both tiers walk the same two sub-stacks and numpy stopped
# doing the wasted work, so the ratio fell because its denominator did:
# at REPRO_BENCH_BACKEND_N=12000, 64 dests, --stat min, parent and
# change on one machine, trees[numpy] 62.6 -> 12.6 ms and trees[cext]
# 8.30 -> 4.21 ms, i.e. 7.5x -> 3.0x (BENCH_20261001_kernel_levels.json;
# a second pair of runs read 6.8x -> 2.7x).  cext itself is still held
# by the 10% per-kernel rule on kernel_backend_*[cext].
bench-compare:
	python scripts/bench_compare.py $(BENCH_OLD) $(BENCH_NEW) \
		--require kernel --require kernel_policy \
		--require kernel_backend --require kernel_attack \
		--stat min --only kernel \
		--speedup "kernel_backend_trees[cext]:kernel_backend_trees[numpy]:2.0" \
		--speedup "kernel_backend_structures[cext]:kernel_backend_structures[numpy]:2.0" \
		--speedup "kernel_attack_batched[origin_hijack-numpy]:kernel_attack_scalar:3.0"

bench-large:
	REPRO_BENCH_N=2000 pytest benchmarks/ --benchmark-only

# The end-to-end performance ledger (perf/README.md): every workload's
# end-to-end metrics (~90 s), and its self-test plus the check-size
# golden digests of every workload (~8 s, no timing; blocking in CI).
perf:
	python3 perf/run.py all

perf-check:
	python3 perf/run.py check

# Static analysis: the project-invariant linter always runs (stdlib
# only) — per-file rules plus the whole-program pass (import layering,
# fork/thread safety, dead public API) — followed by the API-surface
# ratchet; ruff piggybacks when installed, reading its config from
# pyproject.toml so local runs and CI check exactly the same thing.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.analysis --program src scripts benchmarks
	python scripts/api_surface.py
	@if command -v ruff >/dev/null 2>&1; then ruff check src scripts tests benchmarks examples; \
	else echo "ruff not installed (pip install -e '.[dev]'); skipped"; fi

# Regenerate the committed package import graph (docs/import_graph.dot).
# Renders to SVG too when graphviz is installed; CI uploads both.
import-graph:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.analysis \
		--graph-out docs/import_graph.dot src scripts benchmarks
	@if command -v dot >/dev/null 2>&1; then dot -Tsvg docs/import_graph.dot -o docs/import_graph.svg; \
	else echo "graphviz not installed; wrote docs/import_graph.dot only"; fi

lint-fix:
	@if command -v ruff >/dev/null 2>&1; then ruff check --fix src scripts tests benchmarks examples; \
	else echo "ruff not installed (pip install -e '.[dev]'); nothing to fix with"; fi

# mypy strict modules + per-bucket error-count ratchet; loud no-op
# skip when mypy is absent locally (CI passes --require).
typecheck:
	python scripts/typecheck_ratchet.py

examples:
	python examples/quickstart.py 400
	python examples/early_adopter_comparison.py 300
	python examples/secure_routing_attacks.py
	python examples/buyers_remorse_and_oscillation.py
	python examples/custom_topology.py
	python examples/partial_deployment_security.py 250
	python examples/model_sensitivity.py 250

"""Kernel-backend registry and bit-identity parity suite (PR 8).

The numpy backend is the differential ground truth.  The compiled
``cext`` tier must produce **bit-identical** outputs on all three hot
kernels, across every registered policy.  ``tobytes()`` comparisons
make "identical" literal: same bytes, not just allclose.

The suite is environment-adaptive: without a C compiler ``cext`` is
skipped for parity, and the *degradation* path runs everywhere on a
deliberately unloadable backend — a numpy-only environment must pass
this whole file.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.routing import backends as kb
from repro.routing.arena import (
    RoutingArena,
    TreeBuffers,
    compute_trees_batched,
    subtree_weights_batched,
)
from repro.routing.cache import RoutingCache
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable, RouteTooLongError
from repro.routing.fixpoint import (
    PIN_ATT,
    PIN_ROUTE,
    ROW_CONVERGED,
    JacobiDriver,
    pin_table,
)
from repro.routing.policy import RouteClass, available_policies, get_policy
from repro.routing.reference import ConvergenceError
from repro.routing.tree import ARENA_FIELDS, chunk_pools, compute_dest_routing
from repro.runtime.guard import RuntimeGuard, use_guard
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.graph import ASGraph

from tests.references import compute_tree, compute_tree_scalar, subtree_weights
from tests.strategies import graphs_with_security

POLICIES = available_policies()


def _load_ok(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


#: every backend that can actually load here, ground truth first
PARITY_BACKENDS = ["numpy"] + [
    name for name in kb.usable_backends() if name != "numpy" and _load_ok(name)
]

ALT_BACKENDS = [name for name in PARITY_BACKENDS if name != "numpy"]


@pytest.fixture()
def ghost_backend():
    """A registered backend whose module does not exist: a tier that
    will not load, on every machine (deregistered again afterwards)."""
    spec = kb.register_backend(
        kb.KernelBackend(
            name="ghost",
            description="unloadable on purpose (tests only)",
            module="repro.routing.backends.no_such_impl",
        )
    )
    yield spec.name
    del kb._REGISTRY[spec.name]
    kb._FAILURES.pop(spec.name, None)


def _arena_for(graph, policy: str, backend: str, dests) -> RoutingArena:
    pools = get_policy(policy).build_pools(graph, dests)
    return RoutingArena.build(graph.n, [pools], policy=policy, backend=backend)


def _security_state(n: int):
    secure = np.zeros(n, dtype=bool)
    secure[::3] = True
    breaks = np.zeros(n, dtype=bool)
    breaks[::2] = True
    return secure, breaks


class TestRegistry:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kb.get_backend("fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kb.resolve_backend("fortran")

    def test_available_excludes_hidden(self):
        names = kb.available_backends()
        assert "numpy" in names and "python" not in names

    def test_retired_python_name_is_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown kernel backend 'python'"):
            kb.resolve_backend("python")
        monkeypatch.setenv(kb.ENV_VAR, "python")
        with pytest.raises(ValueError, match="unknown kernel backend 'python'"):
            kb.resolve_backend(None)

    def test_register_conflicting_spec_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            kb.register_backend(
                kb.KernelBackend(
                    name="numpy", description="different", module="nope"
                )
            )

    def test_register_is_idempotent_for_equal_spec(self):
        spec = kb.get_backend("numpy")
        assert kb.register_backend(spec) is spec

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(kb.ENV_VAR, "numpy")
        assert kb.default_backend_name() == "numpy"
        assert kb.resolve_backend(None) == "numpy"
        monkeypatch.delenv(kb.ENV_VAR)
        assert kb.default_backend_name() == kb.AUTO

    def test_backend_status_shape(self):
        status = kb.backend_status()
        assert set(status) == set(kb.available_backends())
        assert all(v in ("loaded", "available", "unavailable") for v in status.values())

    def test_auto_resolves_to_something_loaded(self):
        name = kb.resolve_backend(kb.AUTO)
        assert name in kb.available_backends()
        assert kb.backend_status()[name] == "loaded"

    def test_load_failure_is_cached(self, ghost_backend, monkeypatch):
        assert kb.probe(ghost_backend)  # a prediction: nothing imported yet
        with pytest.raises(BackendUnavailable, match="no_such_impl"):
            kb.load_backend(ghost_backend)
        assert not kb.probe(ghost_backend)
        assert kb.backend_status()[ghost_backend] == "unavailable"

        def no_retry(module):
            raise AssertionError(f"failed load retried: import {module}")

        monkeypatch.setattr(kb.importlib, "import_module", no_retry)
        with pytest.raises(BackendUnavailable, match="no_such_impl"):
            kb.load_backend(ghost_backend)

    @pytest.mark.parametrize(
        "on_path, cc_env, expected",
        [
            ({"clang"}, None, "clang"),               # a clang-only box
            ({"cc"}, "no-such-compiler", "cc"),       # $CC set but absent
            ({"cc", "tcc"}, "tcc", "tcc"),            # $CC wins when present
            (set(), None, None),
        ],
    )
    def test_probe_follows_the_compiler_lookup(
        self, monkeypatch, on_path, cc_env, expected
    ):
        monkeypatch.setattr(
            kb.shutil, "which",
            lambda name: f"/usr/bin/{name}" if name in on_path else None,
        )
        if cc_env is None:
            monkeypatch.delenv("CC", raising=False)
        else:
            monkeypatch.setenv("CC", cc_env)
        # probe() of a not-yet-loaded cext tier is exactly this lookup
        monkeypatch.delitem(kb._IMPLS, "cext", raising=False)
        monkeypatch.delitem(kb._FAILURES, "cext", raising=False)
        assert kb.find_compiler() == expected
        assert kb.probe("cext") is (expected is not None)
        assert ("cext" in kb.usable_backends()) is (expected is not None)

    @pytest.mark.skipif("cext" not in ALT_BACKENDS, reason="needs a C compiler")
    def test_loader_asks_the_same_compiler_lookup(self, monkeypatch, tmp_path):
        cext = kb.load_backend("cext")
        monkeypatch.setenv("SBGP_KERNEL_CACHE", str(tmp_path))  # nothing built here
        monkeypatch.setattr(kb.shutil, "which", lambda name: None)
        with pytest.raises(BackendUnavailable, match="no C compiler"):
            cext._build_shared_object()


class TestDegradation:
    def test_unloadable_backend_degrades_to_numpy_with_counted_rung(
        self, ghost_backend
    ):
        guard = RuntimeGuard()
        with use_guard(guard):
            assert kb.resolve_backend(ghost_backend) == "numpy"
        assert guard.ladder.taken("compiled_to_numpy") == 1

    def test_kernels_for_degrades_at_call_time(self, ghost_backend):
        guard = RuntimeGuard()
        with use_guard(guard):
            name, impl = kb.kernels_for(ghost_backend)
        assert name == "numpy"
        assert impl is kb.load_backend("numpy")
        assert guard.ladder.taken("compiled_to_numpy") == 1

    def test_numpy_only_cache_never_errors(self, ghost_backend):
        # the acceptance bar: a run specced for a compiled backend on a
        # host without it completes on numpy, arena included
        from repro.topology.generator import generate_topology
        from repro.topology.traffic import apply_traffic_model

        graph = generate_topology(n=60, seed=9).graph
        apply_traffic_model(graph, 0.10)
        guard = RuntimeGuard()
        with use_guard(guard):
            cache = RoutingCache(
                graph, destinations=list(range(12)), backend=ghost_backend
            )
            cache.warm()
            arena = cache.ensure_arena()
            secure, breaks = _security_state(graph.n)
            bt = compute_trees_batched(arena, arena.all_slots(), secure, breaks)
        assert cache.backend_name == "numpy"
        assert guard.ladder.taken("compiled_to_numpy") >= 1
        assert bt.choice.shape == (12, graph.n)


class TestAutoFallback:
    """``auto``, the default, falls back to numpy *visibly* — one warning
    per process, one ``routing.backend.auto_fallbacks`` count per
    fallback, never the ``compiled_to_numpy`` rung of explicit requests —
    and the run computes what it computes on the compiled tier."""

    @staticmethod
    def _case_study() -> tuple[str, str]:
        from repro.experiments.case_study import run_case_study
        from repro.experiments.persistence import result_to_dict
        from repro.experiments.setup import build_environment

        env = build_environment(n=60, seed=9)
        report = run_case_study(env)
        return env.cache.backend_name, json.dumps(result_to_dict(report.result))

    @staticmethod
    def _no_compiler(monkeypatch, tmp_path) -> None:
        monkeypatch.setattr(kb, "find_compiler", lambda: None)

    @staticmethod
    def _compile_fails(monkeypatch, tmp_path) -> None:
        cc = tmp_path / "failing-cc"
        cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setenv("SBGP_KERNEL_CACHE", str(tmp_path / "kernels"))

    @pytest.mark.parametrize("cause", ["no_compiler", "compile_fails"])
    def test_default_falls_back_to_numpy_visibly(
        self, monkeypatch, tmp_path, caplog, cause
    ):
        monkeypatch.delenv(kb.ENV_VAR, raising=False)
        _, expected = self._case_study()
        # a process that has neither loaded nor tried the compiled tier
        monkeypatch.setattr(kb, "_AUTO_WARNED", False)
        monkeypatch.setattr(kb, "_FAILURES", {})
        monkeypatch.setattr(
            kb, "_IMPLS", {k: v for k, v in kb._IMPLS.items() if k != "cext"}
        )
        monkeypatch.delitem(sys.modules, "repro.routing.backends.cext_impl", raising=False)
        getattr(self, f"_{cause}")(monkeypatch, tmp_path)

        registry, guard = MetricsRegistry(), RuntimeGuard()
        with use_registry(registry), use_guard(guard), caplog.at_level(
            logging.WARNING, logger=kb.__name__
        ):
            name, got = self._case_study()
            assert kb.resolve_backend(None) == "numpy"
        assert name == "numpy" and got == expected
        assert registry.snapshot()["counters"]["routing.backend.auto_fallbacks"] >= 2
        assert guard.ladder.taken("compiled_to_numpy") == 0
        warnings = [r for r in caplog.records if r.name == kb.__name__]
        assert len(warnings) == 1 and "numpy" in warnings[0].getMessage()
        if cause == "compile_fails":
            assert "internal error" in warnings[0].getMessage()


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("policy", POLICIES)
class TestKernelParity:
    """Bit-identity of every backend against numpy, per policy."""

    def _trees(self, graph, policy, backend):
        dests = list(range(0, graph.n, 7))
        secure, breaks = _security_state(graph.n)
        ref_arena = _arena_for(graph, policy, "numpy", dests)
        alt_arena = _arena_for(graph, policy, backend, dests)
        ref = compute_trees_batched(ref_arena, ref_arena.all_slots(), secure, breaks)
        alt = compute_trees_batched(alt_arena, alt_arena.all_slots(), secure, breaks)
        return ref_arena, alt_arena, ref, alt

    def test_trees_bit_identical(self, small_graph, policy, backend):
        _, _, ref, alt = self._trees(small_graph, policy, backend)
        assert ref.choice.tobytes() == alt.choice.tobytes()
        assert ref.secure.tobytes() == alt.secure.tobytes()
        assert ref.any_secure.tobytes() == alt.any_secure.tobytes()

    def test_weights_bit_identical(self, small_graph, policy, backend):
        ref_arena, alt_arena, ref, alt = self._trees(small_graph, policy, backend)
        w = small_graph.weights
        ref_w = subtree_weights_batched(ref_arena, ref_arena.all_slots(), ref.choice, w)
        alt_w = subtree_weights_batched(alt_arena, alt_arena.all_slots(), alt.choice, w)
        # float64 bytes, not allclose: the accumulation orders are
        # provably equivalent under IEEE (see cext_impl's docstring)
        assert ref_w.tobytes() == alt_w.tobytes()

    def test_subset_slots_bit_identical(self, small_graph, policy, backend):
        dests = list(range(0, small_graph.n, 7))
        secure, breaks = _security_state(small_graph.n)
        ref_arena = _arena_for(small_graph, policy, "numpy", dests)
        alt_arena = _arena_for(small_graph, policy, backend, dests)
        rng = np.random.default_rng(len(dests))
        batches = {
            "sorted": [0, 2, 5],
            "unsorted, repeated": [5, 0, 2, 2, 5],
            "one row": [3],
            "full": ref_arena.all_slots(),
        }
        for label, slots in batches.items():
            slots = np.asarray(slots, dtype=np.int64)
            per_row = (rng.random((len(slots), small_graph.n)) < 0.5,
                       rng.random((len(slots), small_graph.n)) < 0.7)
            for state in ((secure, breaks), per_row):
                ref = compute_trees_batched(ref_arena, slots, *state)
                alt = compute_trees_batched(alt_arena, slots, *state)
                for name in ("choice", "secure", "any_secure"):
                    assert getattr(ref, name).tobytes() == getattr(alt, name).tobytes(), label
                ref_w = subtree_weights_batched(
                    ref_arena, slots, ref.choice, small_graph.weights
                )
                alt_w = subtree_weights_batched(
                    alt_arena, slots, alt.choice, small_graph.weights
                )
                assert ref_w.tobytes() == alt_w.tobytes(), label

    def test_fixpoint_structures_bit_identical(self, small_graph, policy, backend):
        dests = list(range(0, small_graph.n, 13))
        ref = get_policy(policy).build_pools(small_graph, dests, backend="numpy")
        alt = get_policy(policy).build_pools(small_graph, dests, backend=backend)
        for dest, r, a in zip(dests, ref.views(), alt.views()):
            assert r.cls.tobytes() == a.cls.tobytes(), (policy, backend, dest)
            assert r.lengths.tobytes() == a.lengths.tobytes(), (policy, backend, dest)
            assert r.order.tobytes() == a.order.tobytes(), (policy, backend, dest)
            assert r.indptr.tobytes() == a.indptr.tobytes(), (policy, backend, dest)
            assert r.cands.tobytes() == a.cands.tobytes(), (policy, backend, dest)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
class TestKernelParityProperty:
    """Hypothesis sweep: random GR1 graphs, random security states."""

    @settings(max_examples=25, deadline=None)
    @given(case=graphs_with_security(min_nodes=4, max_nodes=14))
    def test_random_graphs_bit_identical(self, backend, case):
        graph, secure_nodes = case
        secure = np.zeros(graph.n, dtype=bool)
        secure[secure_nodes] = True
        breaks = secure.copy()
        dests = list(range(graph.n))
        for policy in ("security_1st", "security_3rd"):
            ref = get_policy(policy).build_pools(graph, dests, backend="numpy")
            alt = get_policy(policy).build_pools(graph, dests, backend=backend)
            assert ref.cls.tobytes() == alt.cls.tobytes()
            assert ref.cands_pool.tobytes() == alt.cands_pool.tobytes()
            ref_arena = RoutingArena.build(
                graph.n, [ref], policy=policy, backend="numpy"
            )
            alt_arena = RoutingArena.build(
                graph.n, [alt], policy=policy, backend=backend
            )
            rt = compute_trees_batched(ref_arena, ref_arena.all_slots(), secure, breaks)
            at = compute_trees_batched(alt_arena, alt_arena.all_slots(), secure, breaks)
            assert rt.choice.tobytes() == at.choice.tobytes()
            assert rt.secure.tobytes() == at.secure.tobytes()
            # odd slots descending then slot 0 twice, each row its own state
            slots = np.array([*range(graph.n - 1, -1, -2), 0, 0], dtype=np.int64)
            rows = np.resize(secure, (len(slots), graph.n))
            rows[1::2] = ~rows[1::2]
            rt = compute_trees_batched(ref_arena, slots, rows, rows)
            at = compute_trees_batched(alt_arena, slots, rows, rows)
            for name in ("choice", "secure", "any_secure"):
                assert getattr(rt, name).tobytes() == getattr(at, name).tobytes()
            rw = subtree_weights_batched(ref_arena, slots, rt.choice, graph.weights)
            aw = subtree_weights_batched(alt_arena, slots, at.choice, graph.weights)
            assert rw.tobytes() == aw.tobytes()


def _graph(num: int, provider_of: dict[int, list[int]], peers=()) -> ASGraph:
    """ASes ``1..num``; ``provider_of[c]`` lists the providers of ``c``."""
    g = ASGraph()
    for asn in range(1, num + 1):
        g.add_as(asn)
    for customer, providers in provider_of.items():
        for provider in providers:
            g.add_customer_provider(provider=provider, customer=customer)
    for a, b in peers:
        g.add_peering(a, b)
    return g


#: name -> (graph, destination ASNs or None for all).  Between them the
#: shapes leave each sub-stack of a level empty at least once.
SPLIT_SHAPES = {
    # a provider chain and a pure tree: every row has one candidate
    "chain": (_graph(6, {c: [c - 1] for c in range(2, 7)}), None),
    "tree": (_graph(7, {2: [1], 3: [1], 4: [2], 5: [2], 6: [3], 7: [3]}), None),
    # toward AS 4 the top of the diamond is alone on level 2, with two
    # candidates: a level with multi-candidate rows only
    "diamond_top": (_graph(4, {2: [1], 3: [1], 4: [2, 3]}), [4]),
    # two components plus an AS with no links at all: unreachable rows
    "islands": (_graph(7, {2: [1], 3: [1, 2], 5: [4], 6: [4, 5]}), None),
    # every level past the first mixes both kinds
    "mesh": (
        _graph(
            8, {3: [1, 2], 4: [1, 2], 5: [3], 6: [3, 4], 7: [5, 6], 8: [6]},
            peers=[(1, 2), (3, 4)],
        ),
        None,
    ),
}


@pytest.mark.parametrize("backend", PARITY_BACKENDS)
class TestSplitStackParity:
    """Layout v2 against the scalar references, tier by tier.

    Every tier (numpy included: here the oracle is the per-destination
    scalar code, not numpy) walks the one-candidate and the
    multi-candidate sub-stack of each level; full-set and subset batches
    must equal ``compute_tree_scalar`` / ``subtree_weights`` row for row
    — weights as ``uint64``, so a reordered float sum cannot hide — and
    ``compute_tree``, which selects on hashed tie keys: no pool holds
    keys, so each tier's first-candidate picks answer to both.
    """

    @staticmethod
    def _check(graph, backend, dests, slots, secure, breaks):
        rng = np.random.default_rng(graph.n)
        weights = rng.uniform(0.1, 9.0, size=graph.n)
        routings = [compute_dest_routing(graph, d) for d in dests]
        arena = RoutingArena.build(
            graph.n, [get_policy("security_3rd").build_pools(graph, dests)],
            backend=backend,
        )
        slots = np.asarray(slots, dtype=np.int64)
        registry = MetricsRegistry()
        with use_registry(registry):
            bt = compute_trees_batched(arena, slots, secure, breaks)
        w2d = subtree_weights_batched(arena, slots, bt.choice, weights)
        assert bt.choice.shape == w2d.shape == (len(slots), graph.n)
        for i, slot in enumerate(slots.tolist()):
            dr = routings[slot]
            state = (
                secure[i] if secure.ndim == 2 else secure,
                breaks[i] if breaks.ndim == 2 else breaks,
            )
            ref = compute_tree_scalar(dr, *state)
            keyed = compute_tree(dr, *state)
            where = (backend, dests[slot], i)
            assert keyed.choice.tolist() == ref.choice.tolist(), where
            assert bt.dest_ids[i] == dests[slot], where
            assert bt.choice[i].tolist() == ref.choice.tolist(), where
            assert bt.secure[i].tolist() == ref.secure.tolist(), where
            assert bt.any_secure[i].tolist() == ref.any_secure_candidate.tolist(), where
            ref_w = subtree_weights(dr, ref, weights)
            assert w2d[i].view(np.uint64).tolist() == ref_w.view(np.uint64).tolist(), where
        # the work the call reports is the work the structures hold
        sizes = [routings[slot].tiebreak_sizes() for slot in slots.tolist()]
        counters = registry.snapshot()["counters"]
        assert counters["routing.batched.rows"] == sum(int((s > 0).sum()) for s in sizes)
        assert counters["routing.batched.multi_rows"] == sum(
            int((s > 1).sum()) for s in sizes
        )
        return counters

    @pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES))
    def test_degenerate_shapes(self, backend, shape):
        graph, dest_asns = SPLIT_SHAPES[shape]
        dests = (
            list(range(graph.n)) if dest_asns is None
            else [graph.index(a) for a in dest_asns]
        )
        secure = np.zeros(graph.n, dtype=bool)
        secure[::2] = True
        depth = [len(compute_dest_routing(graph, d).level_starts) for d in dests]
        shallow, deep = int(np.argmin(depth)), int(np.argmax(depth))
        for breaks in (secure, np.zeros(graph.n, dtype=bool)):
            full = self._check(
                graph, backend, dests, range(len(dests)), secure, breaks
            )
            # unsorted, with a repeat, and a single slot
            k = len(dests)
            self._check(
                graph, backend, dests, [k - 1, 0, k // 2, k - 1], secure, breaks
            )
            self._check(graph, backend, dests, [k // 2], secure, breaks)
            # a slot with no rows at the levels its batch neighbour fills
            self._check(graph, backend, dests, [shallow, deep, shallow], secure, breaks)
            # every row under its own state
            batch = [k - 1, 0, k // 2, k - 1, deep]
            rows = np.resize(secure, (len(batch), graph.n))
            rows[1::2] = ~rows[1::2]
            self._check(graph, backend, dests, batch, rows, rows & breaks)
        if shape != "diamond_top":
            assert depth[shallow] < depth[deep]
        if shape in ("chain", "tree"):
            assert full["routing.batched.multi_rows"] == 0
        if shape == "diamond_top":
            assert full["routing.batched.multi_rows"] == 1

    @settings(max_examples=30, deadline=None)
    @given(case=graphs_with_security(min_nodes=4, max_nodes=14))
    def test_random_gr1_graphs(self, backend, case):
        graph, secure_nodes = case
        secure = np.zeros(graph.n, dtype=bool)
        secure[secure_nodes] = True
        breaks = secure.copy()
        breaks[::3] = False    # simplex stubs: secure without SecP
        dests = list(range(graph.n))
        self._check(graph, backend, dests, range(graph.n), secure, breaks)
        # odd slots descending, then slot 0 twice
        subset = [*range(graph.n - 1, -1, -2), 0, 0]
        self._check(graph, backend, dests, subset, secure, breaks)
        # ... each row under its own state
        rows = np.resize(secure, (len(subset), graph.n))
        rows[::2] = ~rows[::2]
        self._check(graph, backend, dests, subset, rows, rows & breaks)


@pytest.mark.skipif("cext" not in ALT_BACKENDS, reason="needs a C compiler")
class TestCextArgumentChecks:
    """The ctypes wrapper must reject, loudly, any array the C code
    would misread — a silent dtype or stride mismatch corrupts memory."""

    @staticmethod
    def _record(cext, name, monkeypatch, run) -> tuple:
        """``(kernel, args)`` of the first genuine ``name`` call ``run`` makes."""
        kernel = getattr(cext, name)
        calls: list[tuple] = []
        monkeypatch.setattr(
            cext, name, lambda *args: (calls.append(args), kernel(*args))[1]
        )
        run()
        return kernel, calls[0]

    @staticmethod
    def _assert_checked(kernel, args, checked):
        for i in checked:
            good = args[i]
            strided = np.repeat(good, 2, axis=-1)[..., ::2]
            assert np.array_equal(strided, good) and not strided.flags.c_contiguous
            other = np.float32 if good.dtype == np.float64 else np.float64
            for bad in (good.astype(other), strided):
                with pytest.raises(TypeError, match="cext kernel expects"):
                    kernel(*args[:i], bad, *args[i + 1:])

    @staticmethod
    def _converge_call(graph, monkeypatch) -> tuple:
        """``(kernel, args)`` of a genuine cext ``jacobi_converge`` call."""
        secure, breaks = _security_state(graph.n)
        return TestCextArgumentChecks._record(
            kb.load_backend("cext"), "jacobi_converge", monkeypatch,
            lambda: get_policy("security_2nd").build_pools(
                graph, [0, 1], node_secure=secure, breaks_ties=breaks,
                backend="cext",
            ),
        )

    def test_every_array_argument_is_checked(self, small_graph, monkeypatch):
        kernel, args = self._converge_call(small_graph, monkeypatch)
        kernel(*args)             # the recorded call itself is valid
        kernel(*args[:-1])        # ... and so is leaving ``tied`` out
        # every argument but ``leak`` and ``cap`` is an array, and every
        # array reaches C
        checked = [i for i, arg in enumerate(args) if isinstance(arg, np.ndarray)]
        assert len(args) == 20 and len(checked) == 18
        assert checked[-1] == len(args) - 1  # tied too
        self._assert_checked(kernel, args, checked)

    def test_a_pin_outside_the_graph_raises_before_the_c_call(
        self, small_graph, monkeypatch
    ):
        kernel, args = self._converge_call(small_graph, monkeypatch)
        calls = _stub_library(monkeypatch)
        for bad in (-2, small_graph.n):
            pins = args[12].copy()
            pins[-1, 0, 0] = bad
            with pytest.raises(ValueError, match="pin outside the graph"):
                kernel(*args[:12], pins, *args[13:])
        assert calls == []
        kernel(*args)   # the stub does see a valid call
        assert calls == ["sbgp_jacobi_converge"]

    def test_an_open_reverse_index_raises_before_the_c_call(
        self, small_graph, monkeypatch
    ):
        kernel, args = self._converge_call(small_graph, monkeypatch)
        calls = _stub_library(monkeypatch)
        rev_ptr, rev_seg, rev_edge = args[4:7]
        short = rev_ptr.copy()
        short[-1] -= 1   # closes one edge short of the table
        for bad in (
            (short, rev_seg, rev_edge),
            (rev_ptr, rev_seg[:-1].copy(), rev_edge),
            (rev_ptr, rev_seg, rev_edge[:-1].copy()),
        ):
            with pytest.raises(ValueError, match="edge table out of step"):
                kernel(*args[:4], *bad, *args[7:])
        assert calls == []

    def test_a_reverse_edge_outside_the_table_raises_before_the_c_call(
        self, small_graph, monkeypatch
    ):
        kernel, args = self._converge_call(small_graph, monkeypatch)
        calls = _stub_library(monkeypatch)
        for bad in (-1, len(args[0])):
            rev_edge = args[6].copy()
            rev_edge[-1] = bad
            with pytest.raises(ValueError, match="reverse edge outside the table"):
                kernel(*args[:6], rev_edge, *args[7:])
        assert calls == []
        kernel(*args)   # the stub does see a valid call
        assert calls == ["sbgp_jacobi_converge"]

    def test_labels_not_chunk_by_n_raise_before_the_c_call(
        self, small_graph, monkeypatch
    ):
        kernel, args = self._converge_call(small_graph, monkeypatch)
        calls = _stub_library(monkeypatch)
        for i in range(14, 18):   # cls, length, sec, att
            for bad in (args[i][:, :-1].copy(), args[i][:-1].copy(), args[i].reshape(-1)):
                with pytest.raises(ValueError, match=r"not \[chunk"):
                    kernel(*args[:i], bad, *args[i + 1:])
        assert calls == []

    @staticmethod
    def _pool_call(graph, monkeypatch, name: str, slots, weighed: bool = False) -> tuple:
        """``(kernel, args, arena)`` of a genuine cext ``name`` call on a
        three-destination arena; ``weighed``: trees and weights in one
        ``trees_stacked`` call."""
        secure, breaks = _security_state(graph.n)
        arena = _arena_for(graph, "security_3rd", "cext", [0, 1, 5])
        batch = arena.all_slots() if slots is None else np.array(slots)
        node_weights = graph.weights if weighed else None

        def run():
            bt = compute_trees_batched(arena, batch, secure, breaks, node_weights=node_weights)
            subtree_weights_batched(arena, batch, bt.choice, graph.weights)

        kernel, args = TestCextArgumentChecks._record(
            kb.load_backend("cext"), name, monkeypatch, run
        )
        return kernel, args, arena

    @pytest.mark.parametrize("slots", [None, [2, 0, 2]], ids=["full", "subset"])
    @pytest.mark.parametrize(
        "name, num_arrays",
        # trees alone, then trees with the node weights and w
        [("trees_stacked", 15), ("weights_stacked", 8), ("trees_stacked", 17)],
    )
    def test_every_stack_array_is_checked(
        self, small_graph, monkeypatch, name, num_arrays, slots
    ):
        kernel, args, arena = self._pool_call(
            small_graph, monkeypatch, name, slots, weighed=num_arrays == 17
        )
        kernel(*args)
        # the slots, ``n``, then arrays only: the pools, then the
        # per-row inputs and outputs (trees: the two state masks, the
        # output rows, the three outputs, and with the weights the node
        # weights and w)
        assert args[1] == small_graph.n and len(args) == num_arrays + 1
        arrays = [i for i, arg in enumerate(args) if isinstance(arg, np.ndarray)]
        assert len(arrays) == num_arrays
        assert all(args[i].size for i in arrays)
        self._assert_checked(kernel, args, arrays)
        # ... and any array one entry short of what the offset tables
        # and the batch say
        for i in arrays:
            with pytest.raises(ValueError, match="out of step"):
                kernel(*args[:i], args[i][:-1].copy(), *args[i + 1:])
        for bad in (-1, arena.num_dests):
            with pytest.raises(ValueError, match="slot outside"):
                kernel(np.full_like(args[0], bad), *args[1:])

    @pytest.mark.parametrize("name", ["trees_stacked", "weights_stacked"])
    def test_out_of_range_slot_raises_before_the_c_call(
        self, small_graph, monkeypatch, name
    ):
        kernel, args, arena = self._pool_call(small_graph, monkeypatch, name, [2, 0, 2])
        calls = _stub_library(monkeypatch)
        for bad in (-1, arena.num_dests, np.iinfo(np.int64).max):
            slots = args[0].copy()
            slots[1] = bad
            with pytest.raises(ValueError, match="slot outside"):
                kernel(slots, *args[1:])
        assert calls == []
        kernel(*args)   # the stub does see a valid call
        assert calls == [f"sbgp_{name}"]

    def test_masks_and_weights_out_of_step_raise_before_the_c_call(
        self, small_graph, monkeypatch
    ):
        kernel, args, _ = self._pool_call(
            small_graph, monkeypatch, "trees_stacked", [2, 0, 2], weighed=True
        )
        n, batch = small_graph.n, len(args[0])
        calls = _stub_library(monkeypatch)
        masks, node_weights, w = (10, 11), 16, 17
        assert all(len(args[i]) == n for i in masks)   # the round's state, shared
        bad = []
        for i in masks:
            # neither one [n] state nor one per batch row
            for length in (n - 1, 2 * n, batch * n + 1):
                bad.append({i: np.zeros(length, dtype=bool)})
        bad += [
            {w: args[w][:n].copy()},                         # w not [batch * n]
            {node_weights: np.resize(args[node_weights], batch * n)},   # not [n]
            {w: None},                                       # one without the other
            {node_weights: None},
        ]
        for swap in bad:
            with pytest.raises(ValueError, match="out of step|come together"):
                kernel(*(swap.get(i, arg) for i, arg in enumerate(args)))
        assert calls == []
        # a state per row, and trees alone, do reach C
        per_row = {i: np.tile(args[i], batch) for i in masks}
        kernel(*(per_row.get(i, arg) for i, arg in enumerate(args)))
        kernel(*args[:-2])
        assert calls == ["sbgp_trees_stacked"] * 2

    @pytest.mark.parametrize(
        "name, pools",
        [
            # order_pool, level_pool, indptr_pool, cands_pool
            ("trees_stacked", (3, 5, 7, 9)),
            ("weights_stacked", (3, 5)),
        ],
    )
    def test_truncated_pool_raises_before_the_c_call(
        self, small_graph, monkeypatch, name, pools
    ):
        kernel, args, _ = self._pool_call(small_graph, monkeypatch, name, None)
        calls = _stub_library(monkeypatch)
        for i in pools:
            # as a torn shared-memory block would leave it: the offset
            # tables intact, the pool cut short
            short = args[i][: len(args[i]) // 2].copy()
            with pytest.raises(ValueError, match="out of step"):
                kernel(*args[:i], short, *args[i + 1:])
        assert calls == []

    def test_bad_structure_build_inputs_raise_before_the_c_call(
        self, small_graph, monkeypatch
    ):
        cext = kb.load_backend("cext")
        kernel, (cg, dests) = self._record(
            cext, "build_structures", monkeypatch,
            lambda: list(chunk_pools(CompiledGraph.from_graph(small_graph), [5, 0, 5], "cext")),
        )
        calls = _stub_library(monkeypatch)
        for bad in (-1, cg.n, np.iinfo(np.int64).max):
            chunk = dests.copy()
            chunk[1] = bad
            with pytest.raises(ValueError, match="destination outside"):
                kernel(cg, chunk)
        for indptr, idx in (("cust_indptr", "cust_idx"), ("peer_indptr", "peer_idx"),
                            ("prov_indptr", "prov_idx")):
            ptr, nodes = getattr(cg, indptr), getattr(cg, idx)
            assert len(nodes)   # or a closing entry one short would still close
            for bad in (
                {indptr: ptr[:-1].copy()},                  # not n + 1 long
                {indptr: np.append(ptr, ptr[-1])},
                {idx: nodes[:-1].copy()},                   # closes past its idx
                {indptr: ptr + 1},                          # does not start at 0
            ):
                with pytest.raises(ValueError, match="CSR out of step"):
                    kernel(dataclasses.replace(cg, **bad), dests)
            for name, good in ((indptr, ptr), (idx, nodes)):
                strided = np.repeat(good, 2)[::2]
                for wrong in (good.astype(np.int16), strided):
                    with pytest.raises(TypeError, match="cext kernel expects"):
                        kernel(dataclasses.replace(cg, **{name: wrong}), dests)
        for wrong in (dests.astype(np.int32), np.repeat(dests, 2)[::2]):
            with pytest.raises(TypeError, match="cext kernel expects"):
                kernel(cg, wrong)
        assert calls == []
        kernel(cg, dests)   # the stub does see a valid call
        assert calls == ["sbgp_structure_labels", "sbgp_structure_pools"]


class TestRowThreads:
    """The compiled kernels run a call's rows on as many threads as the
    process may use CPUs.  Rows write disjoint outputs, so every output
    must be byte-equal to the one-thread call's; where rows meet — the
    sweep limit a revisit lowers, the lowest too-long row — the error
    must be the one the one-thread call raises.  The work floor is
    lowered to one entry so the small fixtures start threads (two and
    three; three on a two-CPU box too)."""

    COUNTS = (1, 2, 3)

    @pytest.fixture()
    def cext(self, monkeypatch):
        if not _load_ok("cext"):
            pytest.skip("cext backend not loadable here")
        cext = kb.load_backend("cext")
        monkeypatch.setattr(cext, "_ROW_FLOOR", 1)
        return cext

    def _per_count(self, cext, monkeypatch, run) -> list:
        """``run()`` under each CPU count."""
        outcomes = []
        for cpus in self.COUNTS:
            monkeypatch.setattr(cext, "_CPUS", cpus)
            assert cext._threads(3, 1).value == min(cpus, 3)
            outcomes.append(run())
        return outcomes

    @staticmethod
    def _assert_bytes_equal(outcomes: list) -> None:
        first, *others = outcomes
        for cpus, other in zip(TestRowThreads.COUNTS[1:], others):
            assert len(other) == len(first)
            for k, (a, b) in enumerate(zip(first, other)):
                assert a.dtype == b.dtype and a.shape == b.shape, (cpus, k)
                assert a.tobytes() == b.tobytes(), (cpus, k)

    def test_no_more_threads_than_the_affinity_allows(self):
        if not _load_ok("cext"):
            pytest.skip("cext backend not loadable here")
        cext = kb.load_backend("cext")
        if hasattr(os, "sched_getaffinity"):
            assert cext._CPUS == len(os.sched_getaffinity(0))
        assert cext._threads(1 << 30, 1 << 20).value == cext._CPUS
        assert cext._threads(1, cext._ROW_FLOOR - 1).value == 1

    def test_trees_and_weights(self, small_graph, cext, monkeypatch):
        n = small_graph.n
        dests = list(range(0, n, 5))
        arena = _arena_for(small_graph, "security_3rd", "cext", dests)
        num, R = arena.num_dests, arena.num_dests + 5
        rng = np.random.default_rng(51)
        shared = rng.random(n) < 0.4
        batches = [
            (arena.all_slots(), arena.all_slots(), shared, shared),
            (np.array([7, 0, 3, 3, num - 1]), np.array([R - 1, 2, 5, 0, num]),
             rng.random((5, n)) < 0.4, rng.random((5, n)) < 0.8),
            (np.array([num // 2]), np.array([1]), shared, shared),
        ]
        garbage = (
            rng.integers(-3, n, size=(R, n), dtype=np.int32),
            rng.random((R, n)) < 0.5, rng.random((R, n)) < 0.5,
            np.full((R, n), np.nan),
        )

        def run():
            got = []
            for slots, rows, node_secure, breaks in batches:
                choice, secure, any_secure, w = (a.copy() for a in garbage)
                compute_trees_batched(
                    arena, slots, node_secure, breaks,
                    out=TreeBuffers(choice=choice, secure=secure, any_secure=any_secure),
                    rows=rows, node_weights=small_graph.weights, weights_out=w,
                )
                alone = subtree_weights_batched(arena, slots, choice[rows], small_graph.weights)
                got += [choice, secure, any_secure, w.view(np.uint64), alone.view(np.uint64)]
            return got

        self._assert_bytes_equal(self._per_count(cext, monkeypatch, run))

    @pytest.mark.parametrize("policy", ["security_3rd", "security_2nd"])
    def test_attacked_chunks_converge_alike(self, small_graph, cext, monkeypatch, policy):
        n = small_graph.n
        secure, breaks = _security_state(n)
        driver = JacobiDriver(
            CompiledGraph.from_graph(small_graph), get_policy(policy), secure, breaks,
            backend="cext",
        )
        table = driver.table
        victims = np.arange(0, n, 9, dtype=np.int64)
        attackers = (victims * 7 + 3) % n
        attackers[::3] = -1   # honest rows beside attacked ones
        chunk = len(victims)
        pins = pin_table(
            chunk, (victims, PIN_ROUTE, int(RouteClass.SELF), 0, secure[victims], False),
            (attackers, PIN_ROUTE | PIN_ATT, int(RouteClass.SELF), 0, False, True),
        )

        def run():
            labels = driver.blank(chunk)
            stats = np.zeros((chunk, 3), dtype=np.int64)
            tied = np.zeros((chunk, table.num_edges), dtype=bool)
            cext.jacobi_converge(
                table.v, table.route_cls, table.node_ptr, table.lp_field,
                table.rev_ptr, table.rev_seg, table.rev_edge, driver._edge_flags,
                driver._rank_shifts, secure, attackers, False, pins, driver.cap,
                *labels, stats, tied,
            )
            assert (stats[:, 0] == ROW_CONVERGED).all()
            return [*labels, tied, stats]

        self._assert_bytes_equal(self._per_count(cext, monkeypatch, run))

    def test_structure_build(self, small_graph, cext, monkeypatch):
        cg = CompiledGraph.from_graph(small_graph)
        dests = np.array([*range(0, small_graph.n, 3), 5, 0, 5], dtype=np.int64)

        def run():
            pools = cext.build_structures(cg, dests)
            assert sorted(name for name, _ in ARENA_FIELDS) == sorted(pools)
            return [pools[name] for name, _ in ARENA_FIELDS]

        self._assert_bytes_equal(self._per_count(cext, monkeypatch, run))

    def test_a_too_long_route_names_the_same_destination(self, cext, monkeypatch):
        # a 130-AS provider chain: toward either end the other end is 129
        # hops away, toward the middle at most 65; rows 1 and 3 fail
        chain = _graph(130, {c: [c - 1] for c in range(2, 131)})
        cg = CompiledGraph.from_graph(chain)
        dests = np.array([64, 129, 65, 0, 64, 65], dtype=np.int64)

        def run():
            with pytest.raises(RouteTooLongError) as error:
                cext.build_structures(cg, dests)
            return str(error.value)

        messages = self._per_count(cext, monkeypatch, run)
        assert "destination 129 " in messages[0]
        assert messages == [messages[0]] * len(self.COUNTS)

    def test_a_dispute_wheel_raises_the_same_error(self, cext, monkeypatch):
        from tests.security.test_attack_differential import _wheel_graph, _wheel_rows

        *_, (quick, slow, wheel, later) = _wheel_graph()
        for dests in ([quick, wheel, slow], [wheel, quick], [later, wheel],
                      [slow, later, quick, wheel, quick]):
            for max_sweeps in (1000, 5):
                def run():
                    with pytest.raises(ConvergenceError) as error:
                        _wheel_rows("cext", dests, max_sweeps=max_sweeps)
                    return str(error.value)

                messages = self._per_count(cext, monkeypatch, run)
                assert messages == [messages[0]] * len(self.COUNTS), (dests, max_sweeps)


def _stub_library(monkeypatch) -> list[str]:
    """Swap the cext tier's shared library for a stub that records the
    name of every kernel called through it."""
    calls: list[str] = []

    class Stub:
        def __getattr__(self, symbol):
            return lambda *args: calls.append(symbol) or 0

    monkeypatch.setattr(kb.load_backend("cext"), "_LIB", Stub())
    return calls


class TestArenaBackendPlumbing:
    def test_cache_stats_report_backend(self, small_graph):
        cache = RoutingCache(small_graph, destinations=[0, 1], backend="numpy")
        assert cache.backend_name == "numpy"
        assert cache.stats().backend == "numpy"

"""Unit tests for rule scoping: package exemptions, alias resolution."""

from __future__ import annotations

from repro.analysis import get_rules, lint_source
from repro.analysis.engine import module_for_path
from repro.analysis.rules import ALL_RULES


def codes(source: str, module: str | None = None, path: str = "fixture.py") -> list[str]:
    return [f.code for f in lint_source(source, path=path, module=module)]


class TestAtomicWriteScoping:
    SOURCE = 'fh = open("out.json", "w")\n'

    def test_flagged_outside_atomic_module(self):
        assert codes(self.SOURCE, module="repro.experiments.report") == ["RPR001"]

    def test_exempt_inside_atomic_module(self):
        assert codes(self.SOURCE, module="repro.runtime.atomic") == []

    def test_scripts_get_no_exemption(self):
        assert codes(self.SOURCE, module=None) == ["RPR001"]

    def test_dynamic_mode_is_not_flagged(self):
        assert codes('fh = open("f", mode)\n') == []


class TestPrivateCacheScoping:
    SOURCE = "n = len(cache._parts)\n"

    def test_flagged_outside_routing(self):
        assert codes(self.SOURCE, module="repro.core.engine") == ["RPR003"]

    def test_exempt_inside_routing_package(self):
        assert codes(self.SOURCE, module="repro.routing.cache") == []


class TestPolicyScoping:
    SOURCE = 'p = RoutingPolicy(name="x", ranking=())\n'

    def test_flagged_outside_policy_module(self):
        assert codes(self.SOURCE, module="repro.core.config") == ["RPR004"]

    def test_exempt_inside_policy_module(self):
        assert codes(self.SOURCE, module="repro.routing.policy") == []

    def test_registry_access_through_import_alias(self):
        source = "from repro.routing.policy import _REGISTRY\nx = _REGISTRY\n"
        assert "RPR004" in codes(source, module="repro.core.config")


class TestAliasResolution:
    def test_numpy_import_alias(self):
        assert codes("import numpy as xyz\nv = xyz.random.rand()\n") == ["RPR002"]

    def test_from_import_function(self):
        assert codes("from numpy.random import rand\nv = rand()\n") == ["RPR002"]

    def test_default_rng_is_allowed_through_alias(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(3)\n") == []


class TestErrorsModuleExemption:
    SOURCE = "class FooError(Exception):\n    pass\n"

    def test_flagged_in_feature_module(self):
        assert codes(self.SOURCE, path="src/repro/topology/graph.py") == ["RPR008"]

    def test_exempt_in_errors_module(self):
        assert codes(self.SOURCE, path="src/repro/topology/errors.py") == []


class TestImportTimeScoping:
    def test_module_level_flagged(self):
        assert codes("import multiprocessing\nL = multiprocessing.Lock()\n") == ["RPR006"]

    def test_function_level_allowed(self):
        source = "import multiprocessing\ndef f():\n    return multiprocessing.Lock()\n"
        assert codes(source) == []

    def test_class_body_counts_as_import_time(self):
        source = "import multiprocessing\nclass C:\n    lock = multiprocessing.Lock()\n"
        assert codes(source) == ["RPR006"]


class TestUnboundedBlockingScoping:
    SOURCE = "result = conn.recv()\n"

    def test_flagged_outside_runtime(self):
        assert codes(self.SOURCE, module="repro.parallel.somewhere") == ["RPR011"]

    def test_exempt_inside_runtime(self):
        assert codes(self.SOURCE, module="repro.runtime.retry") == []

    def test_scripts_get_no_exemption(self):
        assert codes(self.SOURCE, module=None) == ["RPR011"]


class TestInlineKernelScoping:
    SOURCE = (
        "from repro.experiments import run_sweep\n"
        "def handler(env):\n"
        "    return run_sweep(env)\n"
    )

    def test_flagged_in_service_package(self):
        assert codes(self.SOURCE, module="repro.service.daemon") == ["RPR012"]
        assert codes(self.SOURCE, module="repro.service.scheduler") == ["RPR012"]

    def test_exempt_in_executor(self):
        assert codes(self.SOURCE, module="repro.service.executor") == []

    def test_not_scoped_outside_service(self):
        # the CLI and experiments call kernels directly by design
        assert codes(self.SOURCE, module="repro.cli") == []
        assert codes(self.SOURCE, module=None) == []

    def test_alias_resolution(self):
        source = (
            "from repro.experiments.sweeps import run_sweep as go\n"
            "def handler(env):\n"
            "    return go(env)\n"
        )
        assert codes(source, module="repro.service.daemon") == ["RPR012"]

    def test_environment_build_is_a_kernel(self):
        source = (
            "from repro.experiments.setup import build_environment\n"
            "def handler(n):\n"
            "    return build_environment(n=n)\n"
        )
        assert codes(source, module="repro.service.store") == ["RPR012"]


class TestRuleSelection:
    def test_select_runs_only_named_rules(self):
        rules = get_rules(select=frozenset({"RPR001"}))
        assert [r.code for r in rules] == ["RPR001"]

    def test_ignore_removes_rules(self):
        rules = get_rules(ignore=frozenset({"RPR001", "RPR002"}))
        assert "RPR001" not in {r.code for r in rules}
        assert len(rules) == len(ALL_RULES) - 2

    def test_unknown_select_raises(self):
        try:
            get_rules(select=frozenset({"RPR999"}))
        except ValueError as exc:
            assert "RPR999" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestModuleForPath:
    def test_package_file(self):
        assert module_for_path("src/repro/routing/cache.py") == "repro.routing.cache"

    def test_package_init(self):
        assert module_for_path("src/repro/routing/__init__.py") == "repro.routing"

    def test_outside_package(self):
        assert module_for_path("scripts/bench_compare.py") is None

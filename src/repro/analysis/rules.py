"""The rule catalogue: one rule per project invariant (``RPR001``…).

Each rule encodes an invariant established by an earlier PR (atomic
persistence, seeded RNG, cache/registry encapsulation, no-pickle trees,
…) as AST checks.  Rules are heuristic where static analysis cannot see
types (RPR005); the heuristics are documented on the rule and tuned so
the repo lints clean — a waiver (``# repro-lint: disable=CODE``) with a
reason is the escape hatch for deliberate exceptions, and stale waivers
are themselves findings (RPR010).
"""

from __future__ import annotations

import ast
import builtins

from repro.analysis.base import FileContext, Rule

#: Builtin exception class names (``ValueError``, ``OSError``, …).
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _call_mode_argument(node: ast.Call, position: int = 1) -> str | None:
    """The literal mode string of an ``open``-style call, if static."""
    mode: ast.expr | None = None
    if len(node.args) > position:
        mode = node.args[position]
    else:
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _identifiers(node: ast.AST) -> list[str]:
    """All Name ids and Attribute attrs inside ``node``, lowercased."""
    out: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id.lower())
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr.lower())
    return out


class NonAtomicWrite(Rule):
    code = "RPR001"
    name = "non-atomic-write"
    message = (
        "file opened for writing outside repro.runtime.atomic; route writes "
        "through atomic_write_text/atomic_write_json so readers never see a "
        "torn file"
    )
    rationale = (
        "A result file that is half-written when the process dies shadows the "
        "good data from the previous run (PR 1).  Every artifact write goes "
        "through temp-file + fsync + os.replace in repro.runtime.atomic."
    )

    _WRITE_MODES = frozenset("wax+")

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        if ctx.is_module("repro.runtime.atomic"):
            return
        func = node.func
        resolved = ctx.resolve(func)
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            ctx.report(self, node)
            return
        if resolved in ("open", "io.open", "os.fdopen"):
            mode = _call_mode_argument(node, position=1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # method-style (Path.open, ...): mode is the first argument
            mode = _call_mode_argument(node, position=0)
        else:
            return
        if mode is not None and any(ch in self._WRITE_MODES for ch in mode):
            ctx.report(self, node)


class UnseededRandom(Rule):
    code = "RPR002"
    name = "unseeded-rng"
    message = (
        "global RNG use; thread a seeded numpy.random.Generator "
        "(np.random.default_rng(seed)) through instead so runs are reproducible"
    )
    rationale = (
        "Every experiment must be exactly replayable from its config seed; "
        "module-global RNG state (np.random.*, bare random.*) breaks replay "
        "and differs across processes."
    )

    _NUMPY_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "MT19937",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
        }
    )
    _STDLIB_ALLOWED = frozenset({"Random", "SystemRandom"})

    def _check(self, ctx: FileContext, node: ast.AST, dotted: str | None) -> None:
        if not dotted:
            return
        parts = dotted.split(".")
        if dotted.startswith("numpy.random.") and len(parts) >= 3:
            if parts[2] not in self._NUMPY_ALLOWED:
                ctx.report(self, node)
        elif dotted.startswith("random.") and len(parts) == 2:
            if parts[1] not in self._STDLIB_ALLOWED:
                ctx.report(self, node)

    def visit_attribute(self, ctx: FileContext, node: ast.Attribute) -> None:
        self._check(ctx, node, ctx.resolve(node))

    def visit_name(self, ctx: FileContext, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in ctx.aliases:
            self._check(ctx, node, ctx.aliases[node.id])


class PrivateRoutingAccess(Rule):
    code = "RPR003"
    name = "private-cache-access"
    message = (
        "private RoutingCache state (._parts/._arena) touched outside "
        "repro.routing; use the public API (dest_routing/pools_for/build_pools/"
        "install_pools/ensure_arena/stats/pending_runs)"
    )
    rationale = (
        "PR 1 replaced ad-hoc poking at the cache's store with a public "
        "RoutingCache API; PR 3 made the arena an invariant-carrying structure.  "
        "Outside access bypasses state-digest keying and corrupts cache provenance."
    )

    _PRIVATE = frozenset({"_parts", "_arena"})

    def visit_attribute(self, ctx: FileContext, node: ast.Attribute) -> None:
        if node.attr in self._PRIVATE and not ctx.in_package("repro.routing"):
            ctx.report(self, node)


class PolicyRegistryBypass(Rule):
    code = "RPR004"
    name = "policy-registry-bypass"
    message = (
        "routing policy constructed/resolved outside the registry; use "
        "get_policy()/available_policies() (or register_policy() for new ones)"
    )
    rationale = (
        "PR 4 keys caches, arenas and journals by policy identity.  A "
        "RoutingPolicy built outside the registry has no registered name, so "
        "provenance checks and journal resume guards cannot see it."
    )

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        if ctx.is_module("repro.routing.policy"):
            return
        resolved = ctx.resolve(node.func)
        if resolved == "RoutingPolicy" or (
            resolved is not None and resolved.endswith(".RoutingPolicy")
        ):
            ctx.report(self, node)

    def visit_attribute(self, ctx: FileContext, node: ast.Attribute) -> None:
        self._check_registry(ctx, node, ctx.resolve(node))

    def visit_name(self, ctx: FileContext, node: ast.Name) -> None:
        if node.id in ctx.aliases:
            self._check_registry(ctx, node, ctx.aliases[node.id])

    def _check_registry(self, ctx: FileContext, node: ast.AST, dotted: str | None) -> None:
        if ctx.is_module("repro.routing.policy"):
            return
        if dotted is not None and dotted.endswith("routing.policy._REGISTRY"):
            ctx.report(
                self,
                node,
                "direct _REGISTRY access; use available_policies()/get_policy()",
            )


class TreePickle(Rule):
    code = "RPR005"
    name = "tree-pickle"
    message = (
        "pickle/deepcopy of a routing tree or arena; DestRouting structures "
        "cross process boundaries via repro.parallel.shm ArenaHandle only"
    )
    rationale = (
        "Pickling a DestRouting rebuilds megabytes of per-destination arrays "
        "per pipe message — PR 3 exists to avoid exactly that.  Heuristic: a "
        "pickle.dump(s)/copy.deepcopy call whose argument names mention "
        "tree/arena/routing/dest is assumed to target routing structures."
    )

    _FUNCS = frozenset(
        {
            "pickle.dump",
            "pickle.dumps",
            "copy.deepcopy",
            "dill.dump",
            "dill.dumps",
            "cloudpickle.dump",
            "cloudpickle.dumps",
        }
    )
    _HINTS = ("tree", "arena", "routing", "dest")

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        resolved = ctx.resolve(node.func)
        if resolved not in self._FUNCS:
            return
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            names = _identifiers(arg)
            if any(hint in name for hint in self._HINTS for name in names):
                ctx.report(self, node)
                return


class ImportTimeMultiprocessing(Rule):
    code = "RPR006"
    name = "mp-import-time"
    message = (
        "multiprocessing primitive created at import time; build it inside "
        "the function/engine that owns it so import stays side-effect-free "
        "and start-method selection still applies"
    )
    rationale = (
        "The parallel engine picks its start method at call time and must be "
        "importable in workers; module-level Locks/Queues/Pools bind to the "
        "default context at import, break spawn pickling, and leak fds."
    )

    _PRIMITIVES = frozenset(
        {
            "Lock",
            "RLock",
            "Semaphore",
            "BoundedSemaphore",
            "Condition",
            "Event",
            "Barrier",
            "Queue",
            "SimpleQueue",
            "JoinableQueue",
            "Pipe",
            "Pool",
            "Process",
            "Manager",
            "Value",
            "Array",
            "SharedMemory",
        }
    )

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        if not ctx.at_import_time():
            return
        resolved = ctx.resolve(node.func)
        if (
            resolved is not None
            and resolved.startswith("multiprocessing")
            and resolved.rpartition(".")[2] in self._PRIMITIVES
        ):
            ctx.report(self, node)


class BroadExcept(Rule):
    code = "RPR007"
    name = "broad-except"
    message = (
        "broad exception handler that silently swallows; narrow the type, "
        "re-raise, or record the failure (telemetry counter / logging)"
    )
    rationale = (
        "The resilience layer's contract is that failures are either handled "
        "by type or surfaced; a bare/broad swallow hides worker crashes and "
        "corrupt-file signals the runtime is designed to report."
    )

    _HANDLED_CALL_HINTS = (
        "log",
        "warn",
        "metric",
        "counter",
        "telemetr",
        "fallback",
        "record",
        "report",
    )

    def visit_excepthandler(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            ctx.report(self, node, "bare except:; name the exception type")
            return
        if not self._is_broad(ctx, node.type):
            return
        if self._handles(ctx, node):
            return
        ctx.report(self, node)

    def _is_broad(self, ctx: FileContext, type_node: ast.expr) -> bool:
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for sub in nodes:
            resolved = ctx.resolve(sub)
            if resolved in ("Exception", "BaseException"):
                return True
        return False

    def _handles(self, ctx: FileContext, handler: ast.ExceptHandler) -> bool:
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(sub, ast.Name)
                and sub.id == handler.name
                and isinstance(sub.ctx, ast.Load)
            ):
                return True  # the caught exception is forwarded somewhere
            if isinstance(sub, ast.Call):
                dotted = ctx.resolve(sub.func) or ""
                attr = sub.func.attr if isinstance(sub.func, ast.Attribute) else ""
                text = (dotted + " " + attr).lower()
                if any(hint in text for hint in self._HANDLED_CALL_HINTS):
                    return True
        return False


class AdHocException(Rule):
    code = "RPR008"
    name = "adhoc-exception"
    message = (
        "new exception hierarchy rooted outside an errors.py module; define "
        "it in the package's errors module (or derive from an existing "
        "project exception)"
    )
    rationale = (
        "Callers catch by type across layer boundaries (CorruptFileError, "
        "SchemaError, ItemFailedError...).  Hierarchy roots scattered through "
        "feature modules force deep imports and drift into near-duplicates."
    )

    def visit_classdef(self, ctx: FileContext, node: ast.ClassDef) -> None:
        if ctx.path.endswith("errors.py"):
            return
        base_names = []
        for base in node.bases:
            resolved = ctx.resolve(base)
            base_names.append(resolved.rpartition(".")[2] if resolved else "")
        roots_builtin = any(name in _BUILTIN_EXCEPTIONS for name in base_names)
        extends_project = any(
            name not in _BUILTIN_EXCEPTIONS
            and (name.endswith("Error") or name.endswith("Exception"))
            for name in base_names
        )
        if roots_builtin and not extends_project:
            ctx.report(self, node)


class ImportTimeStateMutation(Rule):
    code = "RPR009"
    name = "import-state-mutation"
    message = (
        "global process state mutated at import time; library imports must be "
        "side-effect-free (move it into main()/the owning function)"
    )
    rationale = (
        "Workers, tests and the CLI all import repro.*; sys.path/os.environ/"
        "logging mutations at import time make behaviour depend on import "
        "order and leak between parallel test processes."
    )

    _CALLS = frozenset(
        {
            "sys.path.append",
            "sys.path.insert",
            "sys.path.extend",
            "sys.path.remove",
            "os.chdir",
            "os.putenv",
            "os.environ.update",
            "os.environ.setdefault",
            "os.environ.pop",
            "warnings.filterwarnings",
            "warnings.simplefilter",
            "logging.basicConfig",
        }
    )

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        if not ctx.at_import_time():
            return
        if ctx.resolve(node.func) in self._CALLS:
            ctx.report(self, node)

    def visit_assign(self, ctx: FileContext, node: ast.Assign) -> None:
        if not ctx.at_import_time():
            return
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                if ctx.resolve(target.value) == "os.environ":
                    ctx.report(self, node)
            elif isinstance(target, ast.Attribute):
                if ctx.resolve(target) == "sys.path":
                    ctx.report(self, node)


class UnboundedBlockingCall(Rule):
    code = "RPR011"
    name = "unbounded-blocking-call"
    message = (
        "blocking call without a timeout; pass timeout= (or poll first) so a "
        "dead worker or full pipe cannot hang the run past its deadline"
    )
    rationale = (
        "The runtime guard can only stop a run at checkpoints it reaches; a "
        ".join()/.recv()/.get()/.wait() with no timeout parks the process in "
        "the kernel where no deadline check ever runs.  The resilience layer "
        "(repro.runtime, which owns retries and reaping) is exempt; "
        "everything else must bound its blocking calls."
    )

    _BLOCKING = frozenset({"join", "recv", "get", "wait"})

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._BLOCKING:
            return
        # str.join(iterable) / dict.get(key) style calls carry positional
        # arguments; the zero-argument forms are the blocking ones
        if node.args:
            return
        if any(kw.arg == "timeout" for kw in node.keywords):
            return
        if ctx.in_package("repro.runtime"):
            return
        ctx.report(self, node)


class InlineKernelCall(Rule):
    code = "RPR012"
    name = "inline-kernel-call"
    message = (
        "simulation kernel called directly from repro.service; route the "
        "work through the Scheduler so it runs under a job's guard, journal, "
        "and cache (only repro.service.executor may call kernels)"
    )
    rationale = (
        "The service's request threads must stay cheap: an HTTP handler that "
        "runs a sweep inline blocks the accept loop for minutes, bypasses "
        "per-job deadlines/journals, and double-computes what the scheduler "
        "would have coalesced.  repro.service.executor is the one sanctioned "
        "kernel caller; everything else in repro.service marshals jobs."
    )

    _KERNELS = frozenset(
        {
            "run_sweep",
            "run_case_study",
            "run_cp_vs_tier1",
            "run_experiment",
            "run_attack_matrix",
            "simulate_attacks_batched",
            "build_environment",
            "DeploymentSimulation",
            "simulate_bgp",
            "compute_round_data",
            "compute_trees_batched",
            "subtree_weights_batched",
            "project_flip",
            "project_flips",
            "parallel_warm_cache",
            "parallel_project_flips",
        }
    )

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        if not ctx.in_package("repro.service"):
            return
        if ctx.is_module("repro.service.executor"):
            return
        resolved = ctx.resolve(node.func)
        if resolved is not None and resolved.rpartition(".")[2] in self._KERNELS:
            ctx.report(self, node)


class DirectKernelImplImport(Rule):
    code = "RPR013"
    name = "direct-kernel-impl-import"
    message = (
        "kernel implementation module imported directly; go through the "
        "repro.routing.backends registry (kernels_for/resolve_backend) so "
        "selection, degradation and telemetry stay in one place"
    )
    rationale = (
        "PR 8 made the batched kernels pluggable: numpy is the differential "
        "ground truth, the compiled cext tier is optional and may be "
        "missing or fail to build on a given host.  Importing numpy_impl/"
        "cext_impl/_loops directly pins one implementation, skips "
        "the registry's lazy loading, ladder degradation and per-backend "
        "telemetry, and crashes on hosts without that backend's toolchain."
    )

    _PACKAGE = "repro.routing.backends"
    #: implementation submodules — the package itself (the registry) is
    #: the sanctioned import
    _IMPLS = frozenset({"numpy_impl", "cext_impl", "_loops"})

    def _check(self, ctx: FileContext, node: ast.AST, dotted: str) -> None:
        if ctx.in_package(self._PACKAGE):
            return
        if dotted.startswith(self._PACKAGE + "."):
            tail = dotted[len(self._PACKAGE) + 1:].partition(".")[0]
            if tail in self._IMPLS:
                ctx.report(self, node)

    def visit_import(self, ctx: FileContext, node: ast.Import) -> None:
        for alias in node.names:
            self._check(ctx, node, alias.name)

    def visit_importfrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            if not ctx.module:
                return
            anchor = ctx.module.rsplit(".", node.level)[0]
            module = f"{anchor}.{module}" if module else anchor
        for alias in node.names:
            if alias.name == "*":
                self._check(ctx, node, module)
                continue
            self._check(ctx, node, f"{module}.{alias.name}" if module else alias.name)


class ScenarioRegistryBypass(Rule):
    code = "RPR014"
    name = "scenario-registry-bypass"
    message = (
        "attack scenario constructed/resolved outside the registry; use "
        "get_scenario()/available_scenarios() (or register_scenario() for "
        "new ones in repro.security.scenarios)"
    )
    rationale = (
        "PR 9 keys attack-matrix journals, job-spec digests and telemetry "
        "labels on registered scenario names.  An AttackScenario built "
        "outside repro.security.scenarios has no registered name, so journal "
        "resume guards and spec canonicalisation cannot see it — and direct "
        "registry-dict access bypasses alias resolution and the idempotence "
        "check."
    )

    _HOME = "repro.security.scenarios"
    _REGISTRIES = ("_SCENARIOS", "_SCENARIO_ALIASES", "_STRATEGIES")

    def visit_call(self, ctx: FileContext, node: ast.Call) -> None:
        if ctx.is_module(self._HOME):
            return
        resolved = ctx.resolve(node.func)
        if resolved == "AttackScenario" or (
            resolved is not None and resolved.endswith(".AttackScenario")
        ):
            ctx.report(self, node)

    def visit_attribute(self, ctx: FileContext, node: ast.Attribute) -> None:
        self._check_registry(ctx, node, ctx.resolve(node))

    def visit_name(self, ctx: FileContext, node: ast.Name) -> None:
        if node.id in ctx.aliases:
            self._check_registry(ctx, node, ctx.aliases[node.id])

    def _check_registry(self, ctx: FileContext, node: ast.AST, dotted: str | None) -> None:
        if ctx.is_module(self._HOME):
            return
        if dotted is not None and any(
            dotted.endswith(f"security.scenarios.{registry}")
            for registry in self._REGISTRIES
        ):
            ctx.report(
                self,
                node,
                "direct scenario-registry access; use available_scenarios()/"
                "get_scenario() (or available_strategies()/get_strategy())",
            )


#: Registration order is cosmetic only — findings sort by location.
ALL_RULES: tuple[Rule, ...] = (
    NonAtomicWrite(),
    UnseededRandom(),
    PrivateRoutingAccess(),
    PolicyRegistryBypass(),
    TreePickle(),
    ImportTimeMultiprocessing(),
    BroadExcept(),
    AdHocException(),
    ImportTimeStateMutation(),
    UnboundedBlockingCall(),
    InlineKernelCall(),
    DirectKernelImplImport(),
    ScenarioRegistryBypass(),
)


def get_rules(
    select: frozenset[str] | None = None, ignore: frozenset[str] | None = None
) -> list[Rule]:
    """The active rule set, filtered by code (``--select`` / ``--ignore``)."""
    rules = list(ALL_RULES)
    if select:
        unknown = select - {r.code for r in rules}
        if unknown:
            raise ValueError(f"unknown rule codes: {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.code in select]
    if ignore:
        rules = [r for r in rules if r.code not in ignore]
    return rules

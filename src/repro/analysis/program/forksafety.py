"""Fork/thread-safety analysis (RPR016).

``ProcessEngine.map`` forks (or spawns) workers and the service
scheduler runs jobs on threads; any function reachable from those entry
points may execute concurrently with the parent and with its siblings.
A write to module-level mutable state inside that set is either a bug
(lost updates, cross-fork divergence) or a deliberate per-process cache
that deserves an explicit waiver naming why it is safe.

The analysis is a conservative static approximation:

* **entry points** — the first argument of any ``.map(...)`` /
  ``.map_reduce(...)`` attribute call that resolves to a project
  function, and any ``target=`` / ``func=`` / ``fn=`` keyword on a
  ``Thread`` / ``Process`` constructor call that resolves to one;
* **call graph** — edges resolve through import aliases to module
  functions, through ``self.``/``cls.`` to methods of the enclosing
  class (and its project base classes), to nested closures by local
  name, and to ``__init__`` for project-class instantiation.  Plain
  ``obj.method()`` calls, where the receiver's type is unknown, resolve
  by method name **only when at most two project classes define that
  method** — wider ambiguity is treated as unresolvable rather than
  flooding the reachable set (documented conservatism boundary, see
  DESIGN.md §17);
* **flagged writes** — inside reachable functions: ``global`` rebinds,
  and subscript/attribute/mutating-method writes through a module-level
  name.  Writes under a ``with``-block whose context expression names a
  lock, and names bound to ``threading.local()`` / ``ContextVar``
  values, are exempt (synchronised or per-thread by construction).
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.analysis.program.index import FunctionInfo, ProgramIndex

#: Attribute names whose calls dispatch work onto pool workers.
_MAP_ATTRS = frozenset({"map", "map_reduce"})

#: Constructor tails that take a ``target=`` worker callable.
_THREAD_CTORS = ("Thread", "Process", "Timer")

#: Method-name fallback: resolve an ``obj.m()`` call by name only when
#: at most this many project classes define ``m``.
_AMBIGUITY_LIMIT = 2


@dataclasses.dataclass(frozen=True)
class ForkSafetyViolation:
    """One RPR016 site (anchored at the write statement)."""

    path: str
    line: int
    col: int
    message: str


class CallGraph:
    """Conservative name-resolution call graph over a :class:`ProgramIndex`."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.functions = index.all_functions()
        #: module -> {name -> qualname} for top-level functions
        self.module_functions: dict[str, dict[str, str]] = {}
        #: method name -> [qualname] across all project classes
        self.methods_by_name: dict[str, list[str]] = {}
        #: (module, class) -> {method -> qualname}, plus base names
        self.class_methods: dict[tuple[str, str], dict[str, str]] = {}
        self.class_bases: dict[tuple[str, str], tuple[str, ...]] = {}
        for fi in index.files.values():
            if fi.module is None:
                continue
            table = self.module_functions.setdefault(fi.module, {})
            for qual, fn in fi.functions.items():
                if fn.owner_class is None and "<locals>" not in qual:
                    table[fn.name] = qual
            for cls_name, (bases, methods) in fi.classes.items():
                key = (fi.module, cls_name)
                self.class_bases[key] = bases
                self.class_methods[key] = {m: f.qualname for m, f in methods.items()}
                for m, f in methods.items():
                    self.methods_by_name.setdefault(m, []).append(f.qualname)

    # -- resolution ----------------------------------------------------

    def _resolve_dotted(self, module: str | None, dotted: str) -> list[str]:
        """Call targets for a resolved dotted path like ``mod.sub.fn``."""
        head, _, tail = dotted.rpartition(".")
        if not head:
            # bare name: same-module function or class
            if module is not None:
                table = self.module_functions.get(module, {})
                if dotted in table:
                    return [table[dotted]]
                init = self.class_methods.get((module, dotted), {}).get("__init__")
                if init is not None:
                    return [init]
            return []
        # module-qualified function: ``repro.x.y.fn``
        if head in self.index.modules:
            table = self.module_functions.get(head, {})
            if tail in table:
                return [table[tail]]
            init = self.class_methods.get((head, tail), {}).get("__init__")
            if init is not None:
                return [init]
            return []
        # ``Class.method`` / imported-class instantiation: the alias map
        # already flattened ``from m import C`` to ``m.C``, so ``C.m``
        # arrives as ``m.C.m``.
        mod, _, cls = head.rpartition(".")
        if mod in self.index.modules:
            target = self.class_methods.get((mod, cls), {}).get(tail)
            if target is not None:
                return [target]
        return []

    def _resolve_instance_entry(self, module: str | None, dotted: str) -> list[str]:
        """``__call__`` of the class a callable-instance bind points at."""
        head, _, tail = dotted.rpartition(".")
        if not head and module is not None:
            target = self.class_methods.get((module, dotted), {}).get("__call__")
            return [target] if target is not None else []
        if head in self.index.modules:
            target = self.class_methods.get((head, tail), {}).get("__call__")
            return [target] if target is not None else []
        return []

    def _resolve_self_call(self, fn: FunctionInfo, attr: str) -> list[str]:
        if fn.module is None or fn.owner_class is None:
            return []
        seen: set[tuple[str, str]] = set()
        queue: deque[tuple[str, str]] = deque([(fn.module, fn.owner_class)])
        while queue:
            key = queue.popleft()
            if key in seen:
                continue
            seen.add(key)
            target = self.class_methods.get(key, {}).get(attr)
            if target is not None:
                return [target]
            for base in self.class_bases.get(key, ()):
                mod, _, cls = base.rpartition(".")
                if mod in self.index.modules:
                    queue.append((mod, cls))
                elif fn.module is not None and not mod:
                    queue.append((fn.module, cls))
        return []

    def callees(self, fn: FunctionInfo) -> set[str]:
        out: set[str] = set()
        for site in fn.calls:
            dotted = site.dotted
            if dotted is None:
                continue
            first, _, rest = dotted.partition(".")
            # nested closure by local name
            local = f"{fn.qualname}.<locals>.{dotted}"
            if local in self.functions:
                out.add(local)
                continue
            if first in ("self", "cls") and rest and "." not in rest:
                out.update(self._resolve_self_call(fn, rest))
                continue
            resolved = self._resolve_dotted(fn.module, dotted)
            if resolved:
                out.update(resolved)
                continue
            # unknown receiver: bounded method-name fallback
            if site.attr is not None:
                candidates = self.methods_by_name.get(site.attr, [])
                if 0 < len(candidates) <= _AMBIGUITY_LIMIT:
                    out.update(candidates)
            # a function passed as an argument to another call escapes
            # into it; treat the argument as invoked
            for passed in (site.first_arg, site.target_kwarg):
                if passed is None:
                    continue
                local = f"{fn.qualname}.<locals>.{passed}"
                if local in self.functions:
                    out.add(local)
                else:
                    out.update(self._resolve_dotted(fn.module, passed))
        return out

    # -- entry points --------------------------------------------------

    def entrypoints(self) -> set[str]:
        roots: set[str] = set()

        def scan(fn_qual: str | None, sites: list, module: str | None, scope: FunctionInfo | None) -> None:
            for site in sites:
                is_map = site.attr in _MAP_ATTRS
                is_thread = site.dotted is not None and site.dotted.rpartition(".")[2] in _THREAD_CTORS
                if not (is_map or is_thread):
                    continue
                candidates = []
                if is_map and site.first_arg:
                    candidates.append(site.first_arg)
                if site.target_kwarg:
                    candidates.append(site.target_kwarg)
                for cand in candidates:
                    if scope is not None:
                        local = f"{scope.qualname}.<locals>.{cand}"
                        if local in self.functions:
                            roots.add(local)
                            continue
                        # ``build = _PartitionBuilder(...); engine.map(build, ...)``
                        # — a callable class instance: the worker runs __call__
                        bound = scope.local_binds.get(cand)
                        if bound is not None:
                            instance_entry = self._resolve_instance_entry(module, bound)
                            if instance_entry:
                                roots.update(instance_entry)
                                continue
                    first, _, rest = cand.partition(".")
                    if first in ("self", "cls") and rest and scope is not None:
                        roots.update(self._resolve_self_call(scope, rest.rpartition(".")[2]))
                        continue
                    roots.update(self._resolve_dotted(module, cand))

        for fi in self.index.files.values():
            scan(None, fi.toplevel_calls, fi.module, None)
            for fn in fi.functions.values():
                scan(fn.qualname, fn.calls, fn.module, fn)
        return roots

    def reachable(self, roots: set[str]) -> set[str]:
        seen: set[str] = set()
        queue: deque[str] = deque(sorted(roots))
        while queue:
            qual = queue.popleft()
            if qual in seen or qual not in self.functions:
                continue
            seen.add(qual)
            for callee in self.callees(self.functions[qual]):
                if callee not in seen:
                    queue.append(callee)
        return seen


def check_fork_safety(index: ProgramIndex) -> tuple[list[ForkSafetyViolation], int, int]:
    """RPR016 findings plus (entrypoint count, reachable-function count)."""
    graph = CallGraph(index)
    roots = graph.entrypoints()
    reachable = graph.reachable(roots)

    out: list[ForkSafetyViolation] = []
    for qual in sorted(reachable):
        fn = graph.functions[qual]
        if fn.module is None:
            continue
        fi = index.modules.get(fn.module)
        if fi is None:
            continue
        module_bindings = set(fi.symbols)
        for write in fn.writes:
            if write.locked:
                continue
            if write.name in fi.threadlocal_globals:
                continue
            is_global_rebind = write.name in fn.globals_declared
            # ``global X; X = ...`` creates/rebinds module state even when
            # X has no module-level initialiser; every other write shape
            # must go through a name actually bound at module level.
            if not is_global_rebind and write.name not in module_bindings:
                continue
            out.append(
                ForkSafetyViolation(
                    path=fn.path,
                    line=write.line,
                    col=write.col,
                    message=(
                        f"module-level state `{write.name}` written "
                        f"({write.description}) inside `{fn.name}`, which is reachable "
                        "from ProcessEngine.map / worker-thread entry points; guard it "
                        "with a lock, make it thread-local, or waive with the safety "
                        "argument"
                    ),
                )
            )
    return out, len(roots), len(reachable)

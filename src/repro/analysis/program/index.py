"""The shared whole-program symbol table (one AST pass per file).

Every program-level rule (layering, fork-safety, dead API) consumes the
same :class:`ProgramIndex`, built in ONE visitor pass over each file's
already-parsed AST — the per-file linter hands its trees over, so the
``--program`` flag does not re-read or re-parse anything.

The index records, per file:

* **imports** — every intra-project import, resolved to a concrete
  module and classified ``eager`` (module/class body), ``lazy``
  (function body — the sanctioned cycle-breaking idiom), or ``typing``
  (under ``if TYPE_CHECKING:`` — annotations only, never executed);
* **symbols** — top-level public definitions (functions, classes with
  their methods, assignments) with line anchors and AST-derived
  signatures;
* **functions** — every function/method/nested closure with the raw
  call sites and module-state write sites inside it (resolved later by
  the fork-safety pass);
* **uses** — every referenced identifier (Name loads, Attribute attrs,
  from-import names), the universe the dead-API pass checks public
  symbols against.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable

#: Import-edge classification (see module docstring).
EAGER = "eager"
LAZY = "lazy"
TYPING = "typing"

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: Mutating-method names that count as a write to the receiver.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Identifier fragments that mark a ``with`` context as a lock — writes
#: under such a block are considered synchronised, not lock-free.
_LOCK_HINTS = ("lock", "mutex", "cond", "sem")

#: Module-level initialisers that make a name *per-thread* rather than
#: shared: ``threading.local()`` (or a subclass) and ``ContextVar``.
_THREAD_LOCAL_BASES = ("threading.local", "contextvars.ContextVar")


@dataclasses.dataclass(frozen=True)
class RawImport:
    """One import statement, before module resolution."""

    module: str | None  # the ``from X`` part (resolved through relative levels)
    name: str | None  # the imported name (None for plain ``import X``)
    line: int
    col: int
    kind: str  # EAGER / LAZY / TYPING


@dataclasses.dataclass(frozen=True)
class ImportEdge:
    """One resolved intra-project import edge."""

    src: str  # importing module
    dst: str  # imported project module
    line: int
    col: int
    kind: str  # EAGER / LAZY / TYPING
    path: str  # file the import appears in

    def sort_key(self) -> tuple[str, str, int]:
        return (self.src, self.dst, self.line)


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call inside a function body, in resolver-friendly form."""

    dotted: str | None  # resolved dotted target (through aliases), if any
    attr: str | None  # trailing attribute name for method-style calls
    first_arg: str | None  # resolved dotted of the first positional arg
    target_kwarg: str | None  # resolved dotted of a ``target=``/``func=`` kwarg
    line: int


@dataclasses.dataclass(frozen=True)
class WriteSite:
    """A candidate module-state write inside a function body."""

    name: str  # the module-level name being written
    line: int
    col: int
    description: str  # human-readable form (``cache[key] = ...``)
    locked: bool  # True when under a ``with <...lock...>:`` block


@dataclasses.dataclass
class FunctionInfo:
    """One function / method / nested closure."""

    qualname: str  # module-scoped: ``mod:Class.method`` / ``mod:fn.<locals>.g``
    module: str | None
    path: str
    name: str
    line: int
    owner_class: str | None  # enclosing class name, if a method
    signature: str = ""
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    writes: list[WriteSite] = dataclasses.field(default_factory=list)
    globals_declared: set[str] = dataclasses.field(default_factory=set)
    #: local ``name = SomeCallable(...)`` binds: local name -> dotted
    #: callee.  Lets entry-point detection resolve ``engine.map(build,
    #: ...)`` where ``build`` is a callable class instance.
    local_binds: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class SymbolInfo:
    """One top-level definition in a project module."""

    module: str
    name: str
    kind: str  # "function" | "class" | "constant"
    line: int
    col: int
    path: str
    signature: str

    @property
    def public(self) -> bool:
        return not self.name.startswith("_")


class FileIndex:
    """Everything the program pass extracted from one file."""

    def __init__(self, path: str, module: str | None) -> None:
        self.path = path
        self.module = module
        self.raw_imports: list[RawImport] = []
        self.symbols: dict[str, SymbolInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> (base dotted names, method name -> FunctionInfo)
        self.classes: dict[str, tuple[tuple[str, ...], dict[str, FunctionInfo]]] = {}
        #: every identifier referenced in the file (Name loads, Attribute
        #: attrs); the dead-API universe.
        self.uses: set[str] = set()
        #: names referenced ONLY as from-import targets (re-export shape);
        #: maps name -> source module string of the import.
        self.import_refs: dict[str, str] = {}
        #: module-level names bound to mutable literals/constructors.
        self.mutable_globals: set[str] = set()
        #: module-level names bound to thread-local/ContextVar values.
        self.threadlocal_globals: set[str] = set()
        #: top-level call sites (import-time execution), for entry points.
        self.toplevel_calls: list[CallSite] = []

    @property
    def is_init(self) -> bool:
        return Path(self.path).name == "__init__.py"


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Dotted path of a Name/Attribute chain through import aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - pathological trees only
        return "<expr>"


def _arg_sig(arg: ast.arg) -> str:
    if arg.annotation is not None:
        return f"{arg.arg}: {_unparse(arg.annotation)}"
    return arg.arg


def function_signature(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """Stable one-line signature string derived purely from the AST."""
    a = node.args
    parts: list[str] = []
    pos = [*a.posonlyargs, *a.args]
    defaults: list[ast.expr | None] = [None] * (len(pos) - len(a.defaults)) + list(a.defaults)
    for arg, default in zip(pos, defaults):
        text = _arg_sig(arg)
        if default is not None:
            text += f"={_unparse(default)}"
        parts.append(text)
    if a.posonlyargs:
        parts.insert(len(a.posonlyargs), "/")
    if a.vararg is not None:
        parts.append(f"*{_arg_sig(a.vararg)}")
    elif a.kwonlyargs:
        parts.append("*")
    for arg, kw_default in zip(a.kwonlyargs, a.kw_defaults):
        text = _arg_sig(arg)
        if kw_default is not None:
            text += f"={_unparse(kw_default)}"
        parts.append(text)
    if a.kwarg is not None:
        parts.append(f"**{_arg_sig(a.kwarg)}")
    ret = f" -> {_unparse(node.returns)}" if node.returns is not None else ""
    prefix = "async def" if isinstance(node, ast.AsyncFunctionDef) else "def"
    return f"{prefix} {node.name}({', '.join(parts)}){ret}"


def _is_mutable_initialiser(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Does this module-level value look like shared mutable state?"""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func, aliases) or ""
        tail = dotted.rpartition(".")[2]
        return tail in ("dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter")
    return False


def _is_threadlocal_initialiser(
    node: ast.expr, aliases: dict[str, str], local_bases: dict[str, tuple[str, ...]]
) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func, aliases)
    if dotted is None:
        return False
    if any(dotted == base or dotted.endswith("." + base.rpartition(".")[2]) for base in _THREAD_LOCAL_BASES):
        return True
    # an instance of a locally-defined class deriving from threading.local
    bases = local_bases.get(dotted.rpartition(".")[2], ())
    return any(b in _THREAD_LOCAL_BASES or b.endswith(".local") for b in bases)


class _FileVisitor(ast.NodeVisitor):
    """The single program-pass visitor for one file."""

    def __init__(self, fi: FileIndex) -> None:
        self.fi = fi
        self.aliases: dict[str, str] = {}
        self.depth = 0  # enclosing function bodies
        self.typing_depth = 0  # enclosing ``if TYPE_CHECKING:`` blocks
        self.lock_depth = 0  # enclosing lock-shaped ``with`` blocks
        self.class_stack: list[str] = []
        self.func_stack: list[FunctionInfo] = []
        #: class name -> resolved base dotted names (for threading.local)
        self.class_bases: dict[str, tuple[str, ...]] = {}

    # -- helpers -------------------------------------------------------

    def _import_kind(self) -> str:
        if self.typing_depth:
            return TYPING
        return LAZY if self.depth else EAGER

    def _current_function(self) -> FunctionInfo | None:
        return self.func_stack[-1] if self.func_stack else None

    def _record_symbol(self, name: str, kind: str, node: ast.AST, signature: str) -> None:
        if self.depth or self.class_stack or self.fi.module is None:
            return
        self.fi.symbols[name] = SymbolInfo(
            module=self.fi.module,
            name=name,
            kind=kind,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            path=self.fi.path,
            signature=signature,
        )

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            self.aliases[local] = alias.name if alias.asname else alias.name.partition(".")[0]
            self.fi.raw_imports.append(
                RawImport(alias.name, None, node.lineno, node.col_offset + 1, self._import_kind())
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            if not self.fi.module:
                return
            # level 1 anchors at the containing package: the module's
            # parent for a plain file, the package itself for __init__;
            # each further level strips one more component.
            pkg = self.fi.module if self.fi.is_init else self.fi.module.rsplit(".", 1)[0]
            extra = node.level - 1
            anchor = pkg.rsplit(".", extra)[0] if extra else pkg
            module = f"{anchor}.{module}" if module else anchor
        for alias in node.names:
            if alias.name == "*":
                self.fi.raw_imports.append(
                    RawImport(module, None, node.lineno, node.col_offset + 1, self._import_kind())
                )
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{module}.{alias.name}" if module else alias.name
            self.fi.raw_imports.append(
                RawImport(module, alias.name, node.lineno, node.col_offset + 1, self._import_kind())
            )
            # Deliberately NOT added to ``uses``: keeping import targets
            # in a separate set lets dead-API analysis distinguish "only
            # re-exported" from "imported and actually referenced".
            self.fi.import_refs.setdefault(alias.name, module)

    # -- structure -----------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        test = _dotted(node.test, self.aliases)
        is_type_checking = test in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
        self._track_use_expr(node.test)
        if is_type_checking:
            self.typing_depth += 1
        for child in node.body:
            self.visit(child)
        if is_type_checking:
            self.typing_depth -= 1
        for child in node.orelse:
            self.visit(child)

    def visit_With(self, node: ast.With) -> None:
        locked = False
        for item in node.items:
            self._track_use_expr(item.context_expr)
            text = " ".join(
                part.lower()
                for sub in ast.walk(item.context_expr)
                for part in (
                    [sub.id] if isinstance(sub, ast.Name) else [sub.attr] if isinstance(sub, ast.Attribute) else []
                )
            )
            if any(hint in text for hint in _LOCK_HINTS):
                locked = True
        if locked:
            self.lock_depth += 1
        try:
            for child in node.body:
                self.visit(child)
        finally:
            if locked:
                self.lock_depth -= 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(b for b in (_dotted(base, self.aliases) for base in node.bases) if b)
        self.class_bases[node.name] = bases
        base_text = f"({', '.join(bases)})" if bases else ""
        self._record_symbol(node.name, "class", node, f"class {node.name}{base_text}")
        for base in node.bases:
            self._track_use_expr(base)
        for deco in node.decorator_list:
            self._track_use_expr(deco)
        self.class_stack.append(node.name)
        if not self.depth and len(self.class_stack) == 1:
            self.fi.classes.setdefault(node.name, (bases, {}))
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        sig = function_signature(node)
        owner = self.class_stack[-1] if self.class_stack else None
        if not self.class_stack:
            self._record_symbol(node.name, "function", node, sig)
        parent = self._current_function()
        if parent is not None:
            qual = f"{parent.qualname}.<locals>.{node.name}"
        elif owner is not None and len(self.class_stack) == 1 and not self.depth:
            qual = f"{self.fi.module or self.fi.path}:{owner}.{node.name}"
        else:
            qual = f"{self.fi.module or self.fi.path}:{node.name}"
        info = FunctionInfo(
            qualname=qual,
            module=self.fi.module,
            path=self.fi.path,
            name=node.name,
            line=node.lineno,
            owner_class=owner,
            signature=sig,
        )
        self.fi.functions[qual] = info
        if owner is not None and owner in self.fi.classes and parent is None:
            self.fi.classes[owner][1][node.name] = info
        for deco in node.decorator_list:
            self._track_use_expr(deco)
        self.func_stack.append(info)
        self.depth += 1
        try:
            self.generic_visit(node)
        finally:
            self.depth -= 1
            self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.depth += 1
        try:
            self.generic_visit(node)
        finally:
            self.depth -= 1

    # -- uses ----------------------------------------------------------

    def _track_use_expr(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                self.fi.uses.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                self.fi.uses.add(sub.attr)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.fi.uses.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.fi.uses.add(node.attr)
        self.generic_visit(node)

    # -- assignments / writes ------------------------------------------

    def _module_level_assign(self, target: ast.expr, value: ast.expr | None, node: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        rendered = _unparse(value) if value is not None else "..."
        if len(rendered) > 40:
            rendered = rendered[:37] + "..."
        self._record_symbol(target.id, "constant", node, f"{target.id} = {rendered}")
        if value is not None:
            if _is_mutable_initialiser(value, self.aliases):
                self.fi.mutable_globals.add(target.id)
            if _is_threadlocal_initialiser(value, self.aliases, self.class_bases):
                self.fi.threadlocal_globals.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.depth and not self.class_stack:
            for target in node.targets:
                self._module_level_assign(target, node.value, node)
        fn = self._current_function()
        if fn is not None and isinstance(node.value, ast.Call):
            callee = _dotted(node.value.func, self.aliases)
            if callee is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        fn.local_binds[target.id] = callee
        self._record_write(node.targets, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self.depth and not self.class_stack:
            self._module_level_assign(node.target, node.value, node)
        self._record_write([node.target], node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write([node.target], node)
        self.generic_visit(node)

    def _record_write(self, targets: Iterable[ast.expr], node: ast.AST) -> None:
        fn = self._current_function()
        if fn is None:
            return
        for target in targets:
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if not isinstance(base, ast.Name):
                continue
            # a plain ``name = ...`` rebinding inside a function is a
            # local unless declared global; subscript/attribute writes
            # mutate whatever the name is bound to.
            if isinstance(target, ast.Name) and target.id not in fn.globals_declared:
                continue
            fn.writes.append(
                WriteSite(
                    name=base.id,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    description=_unparse(target),
                    locked=self.lock_depth > 0,
                )
            )

    def visit_Global(self, node: ast.Global) -> None:
        fn = self._current_function()
        if fn is not None:
            fn.globals_declared.update(node.names)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func, self.aliases)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        first_arg = None
        if node.args:
            first_arg = _dotted(node.args[0], self.aliases)
        target_kwarg = None
        for kw in node.keywords:
            if kw.arg in ("target", "func", "fn"):
                target_kwarg = _dotted(kw.value, self.aliases)
        site = CallSite(
            dotted=dotted, attr=attr, first_arg=first_arg, target_kwarg=target_kwarg, line=node.lineno
        )
        fn = self._current_function()
        if fn is not None:
            fn.calls.append(site)
        else:
            self.fi.toplevel_calls.append(site)
        # mutating method calls on a module-level name are writes too
        if (
            fn is not None
            and attr in MUTATING_METHODS
            and isinstance(node.func, ast.Attribute)
        ):
            base = node.func.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                fn.writes.append(
                    WriteSite(
                        name=base.id,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        description=f"{_unparse(node.func)}(...)",
                        locked=self.lock_depth > 0,
                    )
                )
        self.generic_visit(node)


class ProgramIndex:
    """The resolved whole-program view all program rules consume."""

    def __init__(self) -> None:
        self.files: dict[str, FileIndex] = {}  # path -> FileIndex
        self.modules: dict[str, FileIndex] = {}  # module -> FileIndex
        self.edges: list[ImportEdge] = []
        #: reference-only use universes (examples/, perf/ files that are
        #: scanned for symbol uses but not linted).
        self.extra_uses: list[FileIndex] = []

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        parsed: Iterable[tuple[str, str | None, ast.AST]],
        reference_parsed: Iterable[tuple[str, str | None, ast.AST]] = (),
    ) -> "ProgramIndex":
        """Build from (path, module, tree) triples.

        ``parsed`` are the linted files; ``reference_parsed`` contribute
        only to the use universe (dead-API cross-referencing).
        """
        index = cls()
        for path, module, tree in parsed:
            fi = FileIndex(path, module)
            _FileVisitor(fi).visit(tree)
            index.files[path] = fi
            if module is not None:
                index.modules[module] = fi
        for path, module, tree in reference_parsed:
            fi = FileIndex(path, module)
            _FileVisitor(fi).visit(tree)
            index.extra_uses.append(fi)
        index._resolve_edges()
        return index

    def _resolve_edges(self) -> None:
        known = set(self.modules)
        for fi in self.files.values():
            src = fi.module
            if src is None:
                continue
            for raw in fi.raw_imports:
                dst = self._resolve_target(raw, known)
                if dst is None or dst == src:
                    continue
                self.edges.append(
                    ImportEdge(src=src, dst=dst, line=raw.line, col=raw.col, kind=raw.kind, path=fi.path)
                )
        self.edges.sort(key=ImportEdge.sort_key)

    @staticmethod
    def _resolve_target(raw: RawImport, known: set[str]) -> str | None:
        """Concrete project module an import lands on.

        ``from repro.routing import backends`` resolves to the submodule
        ``repro.routing.backends`` when it exists, else to the package
        ``repro.routing`` (an attribute import).  Unknown targets
        (stdlib, third-party) resolve to None.
        """
        module = raw.module
        if module is None:
            return None
        if raw.name is not None and f"{module}.{raw.name}" in known:
            return f"{module}.{raw.name}"
        if module in known:
            return module
        # ``import repro.x.y`` binds repro but executes repro.x.y
        if raw.name is None and module.rpartition(".")[0] in known and module in known:
            return module  # pragma: no cover - covered by the branch above
        return None

    # -- queries -------------------------------------------------------

    def eager_edges(self) -> list[ImportEdge]:
        return [e for e in self.edges if e.kind == EAGER]

    def edge_counts(self) -> dict[str, int]:
        counts = {EAGER: 0, LAZY: 0, TYPING: 0}
        for edge in self.edges:
            counts[edge.kind] += 1
        return counts

    def all_functions(self) -> dict[str, FunctionInfo]:
        out: dict[str, FunctionInfo] = {}
        for fi in self.files.values():
            out.update(fi.functions)
        return out

    def public_symbols(self) -> list[SymbolInfo]:
        out: list[SymbolInfo] = []
        for fi in self.files.values():
            for sym in fi.symbols.values():
                if sym.public:
                    out.append(sym)
        return sorted(out, key=lambda s: (s.module, s.name))

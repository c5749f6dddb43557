"""The ``repro-lint`` rule set: determinism and hot-path contracts.

Every rule is a pure function over one module's AST (plus the file's
repo-relative path and the active :class:`~repro.analyzers.lint.
LintConfig`), registered in :data:`RULES` by code.  Rules exist to
mechanize the contracts PRs 5-8 established by example:

========  ==================================================================
DET001    wall-clock reads (``time.time``/``monotonic``/``perf_counter``/
          ``datetime.now``) in sim-visible code — simulated components must
          take time from ``Simulator.now``
DET002    module-global randomness (``random.random()``, ``numpy.random``)
          instead of seeded ``random.Random`` streams
DET003    iteration over ``set``s whose order can reach scheduling, heap
          pushes or serialized output, without an intervening ``sorted()``
DET004    ``id()``/default-``hash`` ordering or tie-breaks (sort keys, heap
          entries) — identity is not stable across runs or processes
HOT001    classes in declared hot-path modules without ``__slots__`` (or
          ``@dataclass(slots=True)``)
SPEC001   ``from_dict`` implementations in spec modules that do not reject
          unknown keys (no ``repro.specjson.decode`` call, no
          ``_check_keys``-style call, no delegation to a ``from_dict``)
PKL001    lambdas/closures stored on ``self`` in modules whose objects
          cross the ``SweepRunner`` pickle boundary
========  ==================================================================

False positives are expected to be rare and are silenced per line with
``# repro-lint: disable=CODE -- reason`` (the reason is mandatory; see
:mod:`repro.analyzers.lint`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = ["RULES", "Rule", "RawFinding"]


@dataclass(frozen=True, slots=True)
class RawFinding:
    """One rule hit before suppression handling: location + message."""

    line: int
    col: int
    message: str


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    description: str
    #: ``scope(relpath, config) -> bool`` — whether the rule runs on a
    #: file (``None`` = every file).
    scope: Callable | None
    check: Callable[[ast.Module, str, object], Iterable[RawFinding]]


RULES: dict[str, Rule] = {}


def _register(code: str, name: str, description: str,
              scope: Callable | None = None):
    def wrap(fn):
        RULES[code] = Rule(code=code, name=name, description=description,
                           scope=scope, check=fn)
        return fn
    return wrap


# -- shared AST helpers --------------------------------------------------------


def _attr_chain(node: ast.AST) -> str | None:
    """``a.b.c`` as a dotted string, or None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module, module: str) -> set[str]:
    """Local names ``module`` is importable under (``import x as y``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """``{local_name: original_name}`` for ``from module import ...``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module \
                and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    links: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            links[child] = node
    return links


# -- DET001: wall-clock calls --------------------------------------------------

#: ``time`` module functions that read the host clock.
_WALLCLOCK_TIME = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
    "process_time_ns", "clock_gettime", "clock_gettime_ns",
})

#: ``datetime``/``date`` constructors that read the host clock.
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


def _det001_scope(relpath: str, config) -> bool:
    return not config.matches(relpath, config.wallclock_allowlist)


@_register(
    "DET001", "wall-clock-call",
    "host-clock read in sim-visible code; simulated components must "
    "derive time from Simulator.now so two runs of one seed are "
    "byte-identical",
    scope=_det001_scope,
)
def _det001(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    time_aliases = _import_aliases(tree, "time")
    datetime_aliases = _import_aliases(tree, "datetime")
    from_time = {local for local, orig in _from_imports(tree, "time").items()
                 if orig in _WALLCLOCK_TIME}
    datetime_classes = {
        local for local, orig in _from_imports(tree, "datetime").items()
        if orig in ("datetime", "date")
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = None
        if isinstance(func, ast.Name) and func.id in from_time:
            called = f"time.{func.id}"
        elif isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain is None:
                continue
            head, _, rest = chain.partition(".")
            if head in time_aliases and rest in _WALLCLOCK_TIME:
                called = f"time.{rest}"
            elif func.attr in _WALLCLOCK_DATETIME:
                base = chain.rsplit(".", 1)[0]
                base_head = base.split(".")[0]
                if base_head in datetime_aliases \
                        or base in datetime_classes:
                    called = chain
        if called is not None:
            yield RawFinding(
                node.lineno, node.col_offset,
                f"wall-clock call {called}() in sim-visible code; use "
                f"the simulator's virtual clock (Simulator.now) or move "
                f"the measurement behind the wall-clock allowlist",
            )


# -- DET002: unseeded / global randomness --------------------------------------

#: ``random.Random``-family constructors that are fine to touch on the
#: module (a seeded stream is the whole point).
_RANDOM_OK = frozenset({"Random", "SystemRandom"})


@_register(
    "DET002", "global-randomness",
    "module-global randomness (random.*, numpy.random global) instead "
    "of a seeded random.Random stream; global state makes draw order "
    "depend on unrelated code",
)
def _det002(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    random_aliases = _import_aliases(tree, "random")
    numpy_aliases = _import_aliases(tree, "numpy")
    from_random = {
        local for local, orig in _from_imports(tree, "random").items()
        if orig not in _RANDOM_OK
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in from_random:
            yield RawFinding(
                node.lineno, node.col_offset,
                f"{func.id}() drawn from the process-global random "
                f"stream; draw from a seeded random.Random instead",
            )
            continue
        if not isinstance(func, ast.Attribute):
            continue
        value = func.value
        if isinstance(value, ast.Name) and value.id in random_aliases \
                and func.attr not in _RANDOM_OK:
            yield RawFinding(
                node.lineno, node.col_offset,
                f"random.{func.attr}() uses the process-global stream; "
                f"draw from a seeded random.Random instead",
            )
        elif isinstance(value, ast.Attribute) and value.attr == "random" \
                and isinstance(value.value, ast.Name) \
                and value.value.id in numpy_aliases:
            yield RawFinding(
                node.lineno, node.col_offset,
                f"numpy.random.{func.attr}() uses numpy's global "
                f"generator; use numpy.random.Generator seeded per "
                f"stream (default_rng(seed)) instead",
            )


# -- DET003: unsorted set iteration --------------------------------------------

#: Builtins whose result does not depend on iteration order.
_ORDER_INSENSITIVE = frozenset({
    "sum", "min", "max", "len", "any", "all", "set", "frozenset",
    "sorted",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "copy",
})


class _SetFlow(ast.NodeVisitor):
    """In-order, scope-aware tracking of set-valued names.

    Statements are processed in source order with one binding frame per
    function scope (reads fall through to enclosing frames, Python
    style), so both of the clean idioms the codebase relies on stay
    clean: rebinding a set to its sorted form (``s = sorted(s)``) ends
    its set life, and a set binding in one function never poisons a
    same-named variable in a sibling function.
    """

    def __init__(self, parents: dict[ast.AST, ast.AST]) -> None:
        #: name -> is-set, innermost frame last.
        self.frames: list[dict[str, bool]] = [{}]
        self.parents = parents
        self.findings: list[RawFinding] = []

    # -- binding frames --------------------------------------------------------

    def _lookup(self, name: str) -> bool:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return False

    def _bind(self, target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self.frames[-1][target.id] = is_set

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self.is_set_expr(node.left) \
                or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) \
                    and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in _SET_METHODS:
                return self.is_set_expr(func.value)
        return False

    # -- statements ------------------------------------------------------------

    def _visit_scope(self, node: ast.AST) -> None:
        self.frames.append({})
        for stmt in node.body:
            self.visit(stmt)
        self.frames.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        is_set = self.is_set_expr(node.value)
        for target in node.targets:
            self._bind(target, is_set)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._bind(node.target, self.is_set_expr(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if self.is_set_expr(node.value):
            self._bind(node.target, True)

    # -- iteration sites -------------------------------------------------------

    def _flag(self, node: ast.expr, how: str) -> None:
        self.findings.append(RawFinding(
            node.lineno, node.col_offset,
            f"{how} iterates a set in hash order; wrap it in sorted() "
            f"(or prove the consumer is order-insensitive and suppress "
            f"with a reason)",
        ))

    def _consumed_order_insensitively(self, node: ast.AST) -> bool:
        """A comprehension/genexp whose result ignores element order."""
        if isinstance(node, ast.SetComp):
            return True
        parent = self.parents.get(node)
        return isinstance(node, (ast.GeneratorExp, ast.ListComp)) \
            and isinstance(parent, ast.Call) \
            and isinstance(parent.func, ast.Name) \
            and parent.func.id in _ORDER_INSENSITIVE

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        if self.is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self._bind(node.target, False)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_comprehension(self, node) -> None:
        flaggable = not self._consumed_order_insensitively(node)
        for generator in node.generators:
            self.visit(generator.iter)
            if flaggable and self.is_set_expr(generator.iter):
                self._flag(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # list(s) / tuple(s) / enumerate(s) / sep.join(s): the set
        # order is serialized directly into an ordered container or
        # string.
        if isinstance(func, ast.Name) and func.id in ("list", "tuple",
                                                      "enumerate"):
            if node.args and self.is_set_expr(node.args[0]):
                self._flag(node.args[0], f"{func.id}()")
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            if node.args and self.is_set_expr(node.args[0]):
                self._flag(node.args[0], "str.join()")
        self.generic_visit(node)


@_register(
    "DET003", "unsorted-set-iteration",
    "iterating a set without sorted(); set order is hash-dependent and "
    "must not reach scheduling decisions, heap pushes or serialized "
    "output",
)
def _det003(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    flow = _SetFlow(_parents(tree))
    flow.visit(tree)
    yield from flow.findings


# -- DET004: id()/hash ordering ------------------------------------------------

_ORDERING_CALLS = frozenset({"sorted", "min", "max", "heappush",
                             "heapify", "heappushpop", "sort"})


@_register(
    "DET004", "identity-ordering",
    "id()/default hash() used in an ordering context (sort key, heap "
    "entry, min/max tie-break); object identity varies across runs and "
    "processes",
)
def _det004(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    def contains_identity(node: ast.AST) -> ast.Call | None:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) \
                    and isinstance(inner.func, ast.Name) \
                    and inner.func.id in ("id", "hash"):
                return inner
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name not in _ORDERING_CALLS:
            continue
        suspects: list[ast.AST] = list(node.args)
        for keyword in node.keywords:
            if keyword.arg == "key":
                # ``key=id`` / ``key=hash`` passed as bare callables.
                value = keyword.value
                if isinstance(value, ast.Name) \
                        and value.id in ("id", "hash"):
                    yield RawFinding(
                        value.lineno, value.col_offset,
                        f"{name}(key={value.id}) orders by object "
                        f"identity, which differs between runs; order "
                        f"by a stable field instead",
                    )
                    continue
                suspects.append(value)
        for suspect in suspects:
            hit = contains_identity(suspect)
            if hit is not None:
                yield RawFinding(
                    hit.lineno, hit.col_offset,
                    f"{hit.func.id}() inside a {name}() ordering "
                    f"expression ties ordering to object identity, "
                    f"which differs between runs; use a stable "
                    f"sequence number or field instead",
                )


# -- HOT001: hot-path classes without __slots__ --------------------------------

#: Base-class names that exempt a class (enums and exceptions carry
#: class machinery that __slots__ does not mix with usefully).
_HOT_EXEMPT_BASES = ("Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
                     "Exception", "Error", "Protocol", "ABC")


def _hot001_scope(relpath: str, config) -> bool:
    return config.matches(relpath, config.hot_path_modules)


def _dataclass_slots(decorator: ast.AST) -> bool | None:
    """True/False when ``decorator`` is dataclass(with/without slots);
    None when it is not a dataclass decorator at all."""
    if isinstance(decorator, ast.Call):
        target = decorator.func
    else:
        target = decorator
    name = target.id if isinstance(target, ast.Name) else (
        target.attr if isinstance(target, ast.Attribute) else None)
    if name != "dataclass":
        return None
    if isinstance(decorator, ast.Call):
        for keyword in decorator.keywords:
            if keyword.arg == "slots":
                return bool(isinstance(keyword.value, ast.Constant)
                            and keyword.value.value)
    return False


@_register(
    "HOT001", "hot-path-slots",
    "class in a declared hot-path module without __slots__ (or "
    "@dataclass(slots=True)); per-instance dicts cost allocation and "
    "cache misses on every simulated request",
    scope=_hot001_scope,
)
def _hot001(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = []
        for base in node.bases:
            chain = _attr_chain(base)
            if chain is not None:
                base_names.append(chain.rsplit(".", 1)[-1])
        if any(base.endswith(exempt) for base in base_names
               for exempt in _HOT_EXEMPT_BASES):
            continue
        slotted = any(
            isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name)
                and target.id == "__slots__"
                for target in stmt.targets)
            for stmt in node.body
        )
        if not slotted:
            for decorator in node.decorator_list:
                verdict = _dataclass_slots(decorator)
                if verdict:
                    slotted = True
                    break
        if not slotted:
            yield RawFinding(
                node.lineno, node.col_offset,
                f"class {node.name} in hot-path module {relpath} has no "
                f"__slots__; declare __slots__ (or "
                f"@dataclass(slots=True)), or suppress with the reason "
                f"it must stay dict-based",
            )


# -- SPEC001: from_dict without unknown-key rejection --------------------------

_CHECK_KEYS_PATTERNS = ("check_keys", "reject_unknown", "unknown_keys")


def _spec001_scope(relpath: str, config) -> bool:
    return config.matches(relpath, config.spec_modules)


@_register(
    "SPEC001", "lenient-from-dict",
    "from_dict in a spec module without unknown-key rejection; a typo "
    "in a JSON document must raise, not silently fall back to defaults",
    scope=_spec001_scope,
)
def _spec001(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name != "from_dict":
            continue
        strict = False
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            name = None
            if isinstance(inner.func, ast.Name):
                name = inner.func.id
            elif isinstance(inner.func, ast.Attribute):
                name = inner.func.attr
            if name is None:
                continue
            lowered = name.lower()
            if any(pattern in lowered
                   for pattern in _CHECK_KEYS_PATTERNS):
                strict = True
                break
            if name in ("from_dict", "decode"):
                # Delegation to another from_dict, or to the strict
                # spec codec, inherits the callee's strictness.
                strict = True
                break
        if not strict:
            yield RawFinding(
                node.lineno, node.col_offset,
                "from_dict does not reject unknown keys; decode through "
                "repro.specjson.decode(cls, data) (or an equivalent "
                "check) so misspelled document keys raise instead of "
                "vanishing",
            )


# -- PKL001: closures stored across the pickle boundary ------------------------


def _pkl001_scope(relpath: str, config) -> bool:
    return config.matches(relpath, config.pickle_modules)


@_register(
    "PKL001", "closure-on-pickled-object",
    "lambda/closure stored on self in a module whose objects cross the "
    "SweepRunner pickle boundary; pickling will fail (or silently "
    "capture live simulator state)",
    scope=_pkl001_scope,
)
def _pkl001(tree: ast.Module, relpath: str, config) -> Iterator[RawFinding]:
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_defs = {
            stmt.name for stmt in ast.walk(scope)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not scope
        }
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            stored_on_self = any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                for target in node.targets
            )
            if not stored_on_self:
                continue
            value = node.value
            if isinstance(value, ast.Lambda):
                yield RawFinding(
                    value.lineno, value.col_offset,
                    "lambda stored on self cannot cross the "
                    "SweepRunner pickle boundary; use a module-level "
                    "function or a small __call__ class",
                )
            elif isinstance(value, ast.Name) and value.id in local_defs:
                yield RawFinding(
                    value.lineno, value.col_offset,
                    f"locally-defined function {value.id!r} stored on "
                    f"self is a closure and cannot cross the "
                    f"SweepRunner pickle boundary; hoist it to module "
                    f"level",
                )

#!/usr/bin/env python
"""Stdlib fallback linter for `make lint` when ruff is unavailable.

The repo is dependency-free at runtime and the dev image may not ship
ruff; this keeps the lint gate meaningful everywhere.  It covers the
subset of the configured ruff rules that an ``ast`` walk can check
reliably:

* **F401** — imported name never used (skipped in ``__init__.py``,
  where re-exports are the point; ``__all__`` members and
  ``import x as x`` re-export forms count as used).
* **E722** — bare ``except:``.
* **E711/E712** — comparison to ``None`` / ``True`` / ``False`` with
  ``==`` or ``!=``.
* **B006** — mutable default argument (a literal ``[]`` / ``{}`` /
  ``set()`` / comprehension, or a ``list()``/``dict()``/``set()`` call,
  as a parameter default — shared across calls, a classic footgun).
* **PERF001** — ``lambda`` allocated inside a loop of a hot-path
  function (name contains ``fold``/``compute``/``kernel``).  The fused
  fold kernels exist to keep per-row work allocation-free; a lambda in
  the loop body re-creates a closure object per iteration.  Compile-time
  lambdas (built once, outside any loop — e.g. in ``_compile_binding``)
  are fine and not flagged.
* **THR001** — a class under ``src/`` constructs a
  ``threading.Thread(daemon=True)`` but has no paired lifecycle: a
  ``close``/``stop``/``shutdown``/``drain`` method that ``join()``\\ s
  the worker.  Daemon threads die silently at interpreter exit; without
  an explicit drain, work handed to them (e.g. a network server's open
  connections) is abandoned.  The network server's accept and
  connection threads are the only long-lived threads library code
  starts.  Tests and benchmarks may spawn throwaway threads, so the
  rule is scoped to library code.
* **PY39** — ``key=`` passed to ``bisect_left``/``bisect_right``/
  ``insort*`` in library code (``src/``).  The parameter exists from
  Python 3.10 only, the package declares ``requires-python >= 3.9``,
  and the test run sees just one interpreter — on 3.9 the call is a
  ``TypeError`` at the first late insert or bounded scan.  Bisect on a
  probe that compares like the key instead (``(ts,)``, ``(ts, _TOP)``).
* **AGG001** — an aggregate registered in
  ``src/repro/sql/functions.py`` (listed in ``_AGGREGATE_CLASSES``)
  that leaves one of its two execution stories undecided.  (a) It
  neither defines/inherits a real ``merge`` method nor assigns
  ``mergeable = False`` in its own body: whether an aggregate has a
  merge decides the offline carry path, so the
  class states it rather than inheriting a silent default.  (b) It
  takes one argument, is not ``order_sensitive``, and declares no
  ``fold_family``: the window fold (``src/repro/sql/compiler.py``)
  reads the family from the class, and the inherited default is the slow row walk, so an
  aggregate that could be reduced column-at-a-time must say
  ``"sumcount"``, ``"multiset"`` or an explicit ``"rows"``.  Like
  DOC001 it is repo-level and runs in both ``make lint`` branches.
* **DOC001** — a dotted ``repro.*`` reference in the prose docs
  (``README.md``, ``docs/*.md``) that no longer resolves to a module
  or attribute.  ``make verify-docs`` executes the fenced code, but
  prose mentions (``the catalog lives in `repro.obs.metrics```) rot
  silently when a module is renamed; this rule imports each reference
  and getattr-walks the remainder.  Runs in *both* ``make lint``
  branches (with ruff, via ``tools/lint.py --docs``).
* **DEAD001** — a public function, class or method defined under
  ``src/`` that no code of ``src/``, ``benchmarks/``, ``examples/``,
  ``tools/`` or ``perfbench/`` reads: a function or class needs a name
  load, an attribute load or an import of its name, a method an
  attribute load (``x.name`` or ``getattr(x, "name")``).  A string
  that spells the name (a docstring, ``__all__``, a lazy-export table,
  a dict key) is no use, nor is a binding of the same name, nor a
  test: a name only a test reaches is deleted, moved into the test, or
  listed in ``DEAD_ALLOWLIST`` with a one-line reason.  Repo-level, in
  both ``make lint`` branches.

Usage: ``python tools/lint.py PATH [PATH ...]`` — paths are files or
directories (searched recursively for ``*.py``); markdown files and
the DOC001 sweep are included automatically when a given directory
contains them.  ``python tools/lint.py --docs`` runs only the
repo-level sweeps (DOC001 over the prose docs, AGG001 over the
aggregate registry, DEAD001 over the code).  Exits non-zero when
findings exist, printing ``path:line:col CODE message`` per finding.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

Finding = Tuple[str, int, int, str, str]


def iter_python_files(paths: List[str]) -> Iterator[pathlib.Path]:
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


class _NameCollector(ast.NodeVisitor):
    """Collects every identifier *referenced* (not bound by an import)."""

    def __init__(self) -> None:
        self.used: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        pass  # binding, not a use

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        pass

    def visit_Name(self, node: ast.Name) -> None:
        self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # `os.path.join` uses the root name `os`.
        self.generic_visit(node)


def _exported_names(tree: ast.Module) -> Set[str]:
    """Names listed in a module-level ``__all__`` literal."""
    exported: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(
                    node.value, (ast.List, ast.Tuple)):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) \
                            and isinstance(element.value, str):
                        exported.add(element.value)
    return exported


def _is_type_checking_guard(node: ast.stmt) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` blocks hold
    imports used only in annotations — not runtime-unused."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) \
        and test.attr == "TYPE_CHECKING"


def check_unused_imports(path: pathlib.Path,
                         tree: ast.Module) -> Iterator[Finding]:
    if path.name == "__init__.py":
        return  # re-export modules: unused-looking imports are the API
    collector = _NameCollector()
    collector.visit(tree)
    exported = _exported_names(tree)
    guarded: Set[ast.AST] = set()
    for node in ast.walk(tree):
        if _is_type_checking_guard(node):
            for child in ast.walk(node):
                guarded.add(child)
    for node in ast.walk(tree):
        if node in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in collector.used and bound not in exported:
                    yield (str(path), node.lineno, node.col_offset + 1,
                           "F401", f"{alias.name!r} imported but unused")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname == alias.name:
                    continue  # explicit re-export form
                bound = alias.asname or alias.name
                if bound not in collector.used and bound not in exported:
                    yield (str(path), node.lineno, node.col_offset + 1,
                           "F401", f"{alias.name!r} imported but unused")


def check_bare_except(path: pathlib.Path,
                      tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield (str(path), node.lineno, node.col_offset + 1,
                   "E722", "do not use bare 'except'")


_SINGLETONS = {None: "None", True: "True", False: "False"}


def check_singleton_compare(path: pathlib.Path,
                            tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for op, comparand in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (node.left, comparand):
                if isinstance(side, ast.Constant) \
                        and side.value is None:
                    yield (str(path), node.lineno, node.col_offset + 1,
                           "E711", "comparison to None should be "
                           "'is None' / 'is not None'")
                    break
                if isinstance(side, ast.Constant) \
                        and side.value in (True, False) \
                        and isinstance(side.value, bool):
                    yield (str(path), node.lineno, node.col_offset + 1,
                           "E712", f"comparison to {side.value} should "
                           "use 'is' or a truth test")
                    break


_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def check_mutable_defaults(path: pathlib.Path,
                           tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                yield (str(path), default.lineno,
                       default.col_offset + 1, "B006",
                       "do not use mutable data structures for "
                       "argument defaults")


_HOT_NAME_TAGS = ("fold", "compute", "kernel")


def check_loop_lambda_alloc(path: pathlib.Path,
                            tree: ast.Module) -> Iterator[Finding]:
    """PERF001 — per-iteration closure allocation in a fold kernel.

    Only loop *bodies* inside functions whose name marks them as
    hot-path (fold/compute/kernel) are scanned, so the compiler's
    build-once lambdas (allocated at deploy time, not per row) never
    trip the rule.
    """
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = func.name.lower()
        if not any(tag in name for tag in _HOT_NAME_TAGS):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Lambda):
                    yield (str(path), node.lineno, node.col_offset + 1,
                           "PERF001",
                           f"lambda allocated inside a loop of hot-path "
                           f"function {func.name!r}; hoist the closure "
                           "out of the per-row loop")


_CLOSER_NAMES = {"close", "stop", "shutdown", "drain"}


def _is_daemon_thread_call(node: ast.Call) -> bool:
    func = node.func
    is_thread = (isinstance(func, ast.Attribute) and func.attr == "Thread") \
        or (isinstance(func, ast.Name) and func.id == "Thread")
    if not is_thread:
        return False
    return any(keyword.arg == "daemon"
               and isinstance(keyword.value, ast.Constant)
               and keyword.value.value is True
               for keyword in node.keywords)


def check_daemon_thread_lifecycle(path: pathlib.Path,
                                  tree: ast.Module) -> Iterator[Finding]:
    """THR001 — daemon thread with no close()/join() pairing (src only).

    A class that spawns a ``threading.Thread(daemon=True)`` must also
    define a ``close``/``stop``/``shutdown``/``drain`` method and
    ``join()`` the worker somewhere, or queued work silently dies with
    the interpreter.
    """
    if "src" not in path.parts:
        return
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        spawn: Optional[ast.Call] = None
        has_join = False
        for node in ast.walk(klass):
            if not isinstance(node, ast.Call):
                continue
            if spawn is None and _is_daemon_thread_call(node):
                spawn = node
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join":
                has_join = True
        has_closer = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _CLOSER_NAMES
            for stmt in klass.body)
        if spawn is not None and not (has_join and has_closer):
            yield (str(path), spawn.lineno, spawn.col_offset + 1,
                   "THR001",
                   f"class {klass.name!r} spawns a daemon thread but has "
                   "no close()/stop() method that join()s it")


import importlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# A dotted repro.* path in prose or code: `repro.netserve.NetClient`,
# `repro.sql`, ...  Stops before `(` / `-` / whitespace by construction.
_DOC_REFERENCE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _resolve_reference(reference: str) -> Optional[str]:
    """Return an error string if ``reference`` does not resolve.

    Tries the longest importable module prefix, then getattr-walks the
    remaining parts (classes, functions, constants).
    """
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        except Exception as exc:  # import-time crash is also a finding
            return f"importing {module_name!r} raised {exc!r}"
        for attr in parts[cut:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                return (f"{module_name!r} has no attribute "
                        f"{'.'.join(parts[cut:])!r}")
        return None
    return f"no importable prefix of {reference!r}"


def doc_files(root: pathlib.Path = REPO_ROOT) -> List[pathlib.Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def check_doc_references(
        root: pathlib.Path = REPO_ROOT) -> Iterator[Finding]:
    """DOC001 — every ``repro.*`` mention in the prose docs resolves."""
    src = root / "src"
    if src.exists() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    checked: dict = {}
    for doc in doc_files(root):
        for lineno, line in enumerate(
                doc.read_text(encoding="utf-8").splitlines(), start=1):
            for match in _DOC_REFERENCE.finditer(line):
                reference = match.group(0)
                if reference not in checked:
                    checked[reference] = _resolve_reference(reference)
                error = checked[reference]
                if error is not None:
                    yield (str(doc.relative_to(root)), lineno,
                           match.start() + 1, "DOC001",
                           f"doc reference {reference!r} does not "
                           f"resolve: {error}")


_FUNCTIONS_PY = pathlib.Path("src/repro/sql/functions.py")


def _registered_aggregate_classes(tree: ast.Module) -> Set[str]:
    """Class names inside the ``_AGGREGATE_CLASSES`` registry literal."""
    registered: Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name)
                        and t.id == "_AGGREGATE_CLASSES"
                        for t in node.targets)):
            continue
        # ``{cls.name: cls for cls in (A, B, ...)}`` — read the tuple.
        for name_node in ast.walk(node.value):
            if isinstance(name_node, ast.Name) \
                    and name_node.id.endswith("Agg"):
                registered.add(name_node.id)
    return registered


_FOLD_FAMILIES = ("sumcount", "multiset", "rows")


def check_aggregate_merge_coverage(
        root: pathlib.Path = REPO_ROOT) -> Iterator[Finding]:
    """AGG001 — every registered aggregate decides its merge and, when
    the window fold could reduce it by column, declares a fold family.

    Merge: either the class (or an in-file ancestor other than the
    abstract ``AggregateFunction`` base, whose ``merge`` raises) defines
    ``merge``, or its own body assigns ``mergeable = False``.  Fold
    family: a single-argument, order-insensitive aggregate sets
    ``fold_family`` (itself or through an in-file ancestor) to one of
    ``_FOLD_FAMILIES``.
    """
    path = root / _FUNCTIONS_PY
    if not path.exists():
        return
    tree = ast.parse(path.read_text(encoding="utf-8"),
                     filename=str(path))
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def own_merge(klass: ast.ClassDef) -> bool:
        return any(isinstance(stmt, ast.FunctionDef)
                   and stmt.name == "merge" for stmt in klass.body)

    def class_attr(klass: ast.ClassDef, attr: str) -> object:
        """The constant ``attr`` is assigned in the class body, if any."""
        for stmt in klass.body:
            if isinstance(stmt, ast.Assign) \
                    and any(isinstance(t, ast.Name) and t.id == attr
                            for t in stmt.targets) \
                    and isinstance(stmt.value, ast.Constant):
                return stmt.value.value
        return None

    def resolve(klass: ast.ClassDef, getter) -> object:
        """Walk in-file bases (excluding the abstract root) for a hit."""
        queue, seen = [klass], set()
        while queue:
            node = queue.pop(0)
            if node.name in seen:
                continue
            seen.add(node.name)
            hit = getter(node)
            if hit:
                return hit
            for base in node.bases:
                if isinstance(base, ast.Name) \
                        and base.id in classes \
                        and base.id != "AggregateFunction":
                    queue.append(classes[base.id])
        return None

    for class_name in sorted(_registered_aggregate_classes(tree)):
        klass = classes.get(class_name)
        if klass is None:
            continue
        agg_name = resolve(klass, lambda k: class_attr(k, "name"))
        where = (str(path.relative_to(root)), klass.lineno,
                 klass.col_offset + 1, "AGG001")
        if not resolve(klass, own_merge) \
                and class_attr(klass, "mergeable") is not False:
            yield (*where,
                   f"aggregate {agg_name or class_name!r} is registered "
                   "without deciding its merge: define merge() or state "
                   "`mergeable = False` (with the reason) in the class")
        # Absent means the base class default: one argument, any order.
        folds_by_column = (
            resolve(klass, lambda k: class_attr(k, "value_args")) or 1) == 1 \
            and not resolve(klass, lambda k: class_attr(k, "order_sensitive"))
        family = resolve(klass, lambda k: class_attr(k, "fold_family"))
        if folds_by_column and family not in _FOLD_FAMILIES:
            yield (*where,
                   f"aggregate {agg_name or class_name!r} takes one "
                   "argument in any order but declares no fold_family: "
                   f"set it to one of {_FOLD_FAMILIES} "
                   "(src/repro/sql/compiler.py reads it)")


#: Where a name must be used for its definition under ``src/`` to live.
_CODE_DIRS = ("src", "benchmarks", "examples", "tools", "perfbench")

#: Names DEAD001 accepts without a use in code, each with its reason.
DEAD_ALLOWLIST: Dict[str, str] = {
    "preview": "OpenMLDB's online-preview mode (paper §3.2), a user API",
    "undeploy": "the user API that retires a deployment (DEPLOY's inverse)",
    "compact": "DiskTable's explicit compaction, a user-driven storage "
               "event the WAL logs and recovery replays",
    "collect_until_ready": "NetClient's raw-protocol read, documented in "
                           "docs/network_protocol.md for protocol-level "
                           "clients",
    "close_message": "the pg-wire Close frame; the protocol module builds "
                     "every frontend message the server parses",
    "last_trace": "the tracer's read of the newest trace, documented in "
                  "docs/observability.md",
    "to_tfrecords": "the feature-signature TFRecord export, documented in "
                    "docs/sql_reference.md",
    "imbalance": "the window-union workers' max/mean load, the "
                 "self-adjusting union's (paper §5.2) observable outcome",
}


#: Calls whose constant second argument names an attribute they read.
_GETATTR_CALLS = {"getattr", "hasattr"}


def _code_uses(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """What the code reads: ``(names, attributes)``.

    ``names`` are bare-name loads and imported names — how a module's
    function or class is reached; ``attributes`` are attribute loads
    and ``getattr(x, "name")`` reads — how a method is.  A binding
    (an assignment, a parameter, a definition) is not a use, and
    neither is a string that merely spells the name (a docstring,
    ``__all__``, a dict key)."""
    names: Set[str] = set()
    attributes: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in _GETATTR_CALLS \
                and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            attributes.add(node.args[1].value)
    return names, attributes


def _public_definitions(tree: ast.Module
                        ) -> Iterator[Tuple[ast.AST, bool]]:
    """Every public function and class, and whether it is a method
    (reachable only as an attribute)."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in DEAD_ALLOWLIST:
                yield node, isinstance(parent, ast.ClassDef)


def check_dead_definitions(
        root: pathlib.Path = REPO_ROOT) -> Iterator[Finding]:
    """DEAD001 — a public function, class or method under ``src/``
    that no code of ``_CODE_DIRS`` reads.

    A module-level function or class is used by a name load, an
    attribute load or an import of its name; a method only by an
    attribute load (``x.name`` or ``getattr(x, "name")``).  Tests do
    not count: a name only a test reaches is dead weight the program
    carries.  ``DEAD_ALLOWLIST`` exempts a name with a reason.
    """
    names: Set[str] = set()
    attributes: Set[str] = set()
    definitions = []
    for directory in _CODE_DIRS:
        for path in iter_python_files([str(root / directory)]):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            loaded, read = _code_uses(tree)
            names |= loaded
            attributes |= read
            if directory == "src":
                definitions.extend(
                    (path, node, method)
                    for node, method in _public_definitions(tree))
    for path, node, method in definitions:
        if node.name in attributes \
                or (not method and node.name in names):
            continue
        kind = "class" if isinstance(node, ast.ClassDef) \
            else "method" if method else "function"
        yield (str(path.relative_to(root)), node.lineno,
               node.col_offset + 1, "DEAD001",
               f"{kind} {node.name!r} is used by no code (tests do "
               "not count): delete it, or allowlist it in "
               "DEAD_ALLOWLIST with the reason")


_BISECT_NAMES = {"bisect", "bisect_left", "bisect_right",
                 "insort", "insort_left", "insort_right"}


def check_bisect_key(path: pathlib.Path,
                     tree: ast.Module) -> Iterator[Finding]:
    """PY39 — ``bisect*(..., key=)`` needs Python 3.10 (src only)."""
    if "src" not in path.parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if name in _BISECT_NAMES and any(
                keyword.arg == "key" for keyword in node.keywords):
            yield (str(path), node.lineno, node.col_offset + 1, "PY39",
                   f"{name}(key=...) needs Python 3.10; the package "
                   "supports 3.9 — bisect on a comparable probe instead")


def lint(paths: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
        except SyntaxError as exc:
            findings.append((str(path), exc.lineno or 0, exc.offset or 0,
                             "E999", f"syntax error: {exc.msg}"))
            continue
        for checker in (check_unused_imports, check_bare_except,
                        check_singleton_compare, check_mutable_defaults,
                        check_loop_lambda_alloc,
                        check_daemon_thread_lifecycle, check_bisect_key):
            findings.extend(checker(path, tree))
    return findings


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: lint.py [--docs] PATH [PATH ...]", file=sys.stderr)
        return 2
    docs_only = "--docs" in argv
    paths = [arg for arg in argv if arg != "--docs"]
    findings: List[Finding] = [] if docs_only else sorted(lint(paths))
    findings.extend(sorted(check_doc_references()))
    findings.extend(sorted(check_aggregate_merge_coverage()))
    findings.extend(sorted(check_dead_definitions()))
    for path, line, col, code, message in findings:
        print(f"{path}:{line}:{col} {code} {message}")
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

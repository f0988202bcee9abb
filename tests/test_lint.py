"""The DOC001 doc-reference rule in tools/lint.py.

``make verify-docs`` executes fenced code, but prose mentions of
``repro.*`` modules rot silently on a rename — DOC001 imports every
dotted reference found in README.md / docs/*.md and getattr-walks the
tail.  These tests pin that the repo's own docs are clean and that the
rule actually fires on a broken reference.
"""

import ast
import importlib.util
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "repro_tools_lint", ROOT / "tools" / "lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load_lint()


def test_repo_docs_have_no_dangling_references():
    findings = list(lint.check_doc_references(ROOT))
    assert findings == [], findings


def test_docs_actually_contain_references():
    # The rule is only meaningful if the sweep sees something: the
    # prose docs must mention repro modules (they always have).
    references = set()
    for doc in lint.doc_files(ROOT):
        references.update(
            lint._DOC_REFERENCE.findall(doc.read_text(encoding="utf-8")))
    assert len(references) >= 10
    assert "repro.netserve" in references


def test_resolution_walks_module_then_attributes():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    assert lint._resolve_reference("repro.netserve.NetClient") is None
    assert lint._resolve_reference("repro.sql") is None
    assert lint._resolve_reference("repro.core.consistency") is None


def test_dangling_reference_is_a_finding(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Uses `repro.no_such_module.Widget` heavily.\n")
    (tmp_path / "docs" / "page.md").write_text(
        "See `repro.netserve.NoSuchAttr` and the fine "
        "`repro.netserve.NetServer`.\n")
    findings = list(lint.check_doc_references(tmp_path))
    codes = {(path, code) for path, _, _, code, _ in findings}
    assert ("README.md", "DOC001") in codes
    assert ("docs/page.md", "DOC001") in codes
    # The resolvable reference on the same line is not flagged.
    assert sum(1 for f in findings if "NetServer" in f[4]) == 0
    assert len(findings) == 2


def test_docs_only_cli_mode(capsys):
    assert lint.main(["--docs"]) == 0


class TestAggregateMergeCoverage:
    """AGG001 — every registered aggregate decides its merge on the
    class and, when the fold could reduce it by column, declares a fold
    family."""

    def test_repo_registry_is_fully_covered(self):
        findings = list(lint.check_aggregate_merge_coverage(ROOT))
        assert findings == [], findings

    @staticmethod
    def _write_registry(root, *, mergeless_body="    mergeable = False\n",
                        extra_class=""):
        (root / "src/repro/sql").mkdir(parents=True)
        (root / "src/repro/sql/functions.py").write_text(
            "class AggregateFunction:\n"
            "    name = ''\n"
            "    mergeable = False\n"
            "    def merge(self, a, b):\n"
            "        raise RuntimeError\n"
            "class SumAgg(AggregateFunction):\n"
            "    name = 'sum'\n"
            "    fold_family = 'sumcount'\n"
            "    def merge(self, a, b):\n"
            "        return a\n"
            "class InheritingAgg(SumAgg):\n"
            "    name = 'inheriting'\n"
            "class MergelessAgg(AggregateFunction):\n"
            "    name = 'mergeless'\n"
            "    order_sensitive = True\n"
            + mergeless_body + extra_class +
            "_AGGREGATE_CLASSES = {cls.name: cls for cls in (\n"
            "    SumAgg, InheritingAgg, MergelessAgg, "
            + ("OrphanAgg," if extra_class else "") + ")}\n")

    def test_undecided_merge_is_a_finding(self, tmp_path):
        self._write_registry(
            tmp_path,
            extra_class=("class OrphanAgg(AggregateFunction):\n"
                         "    name = 'orphan'\n"
                         "    fold_family = 'rows'\n"))
        findings = list(lint.check_aggregate_merge_coverage(tmp_path))
        assert len(findings) == 1
        path, _line, _col, code, message = findings[0]
        assert code == "AGG001"
        assert "orphan" in message and "mergeable = False" in message
        assert path == "src/repro/sql/functions.py"

    def test_undeclared_fold_family_is_a_finding(self, tmp_path):
        # One argument, any order, a merge of its own — but nothing says
        # how the window fold reduces it, and a typo says nothing either.
        for case, declaration in enumerate(
                ("", "    fold_family = 'sumcuont'\n")):
            root = tmp_path / str(case)
            self._write_registry(
                root,
                extra_class=("class OrphanAgg(AggregateFunction):\n"
                             "    name = 'orphan'\n" + declaration +
                             "    def merge(self, a, b):\n"
                             "        return a\n"))
            findings = list(lint.check_aggregate_merge_coverage(root))
            assert [f[3] for f in findings] == ["AGG001"]
            assert "orphan" in findings[0][4]
            assert "fold_family" in findings[0][4]

    def test_row_walkers_need_no_fold_family(self, tmp_path):
        # Order-sensitive and multi-argument aggregates always walk
        # rows; an inherited declaration covers a subclass.
        self._write_registry(
            tmp_path,
            extra_class=("class OrphanAgg(AggregateFunction):\n"
                         "    name = 'orphan'\n"
                         "    value_args = 2\n"
                         "    def merge(self, a, b):\n"
                         "        return a\n"))
        assert list(lint.check_aggregate_merge_coverage(tmp_path)) == []

    def test_own_inherited_and_stated_decisions_all_satisfy(self, tmp_path):
        # sum has its own merge, inheriting gets it from a base class,
        # mergeless says `mergeable = False` itself: nothing to report —
        # the abstract base's raising merge never counts.
        self._write_registry(tmp_path)
        assert list(lint.check_aggregate_merge_coverage(tmp_path)) == []

    def test_inherited_default_is_not_a_decision(self, tmp_path):
        # The root's `mergeable = False` default is exactly the silence
        # the rule is about; so is `mergeable = True` with no merge.
        for case, body in enumerate(("", "    mergeable = True\n")):
            root = tmp_path / str(case)
            self._write_registry(root, mergeless_body=body)
            findings = list(lint.check_aggregate_merge_coverage(root))
            assert [f[3] for f in findings] == ["AGG001"]
            assert "mergeless" in findings[0][4]


class TestBisectKey:
    """PY39 — ``bisect(key=)`` is 3.10+; the package supports 3.9."""

    def test_library_code_is_clean(self):
        findings = [f for f in lint.lint([str(ROOT / "src")])
                    if f[3] == "PY39"]
        assert findings == [], findings

    def test_key_argument_is_a_finding(self, tmp_path):
        module = tmp_path / "src" / "m.py"
        module.parent.mkdir()
        module.write_text(
            "import bisect\n"
            "from bisect import bisect_right, insort\n"
            "def f(pairs, ts, key):\n"
            "    bisect.bisect_left(pairs, ts, key=key)\n"
            "    insort(pairs, ts, key=key)\n"
            "    pairs.sort(key=key)\n"
            "    return bisect_right(pairs, (ts,), 0, len(pairs))\n")
        findings = [f for f in lint.lint([str(tmp_path)])
                    if f[3] == "PY39"]
        assert [(f[1], f[3]) for f in findings] == [(4, "PY39"),
                                                    (5, "PY39")]


class TestDeadDefinitions:
    """DEAD001 — a public definition under ``src/`` that only tests use."""

    def test_repo_sweep_is_clean(self):
        findings = list(lint.check_dead_definitions(ROOT))
        assert findings == [], findings

    def test_test_only_definition_is_a_finding(self, tmp_path,
                                               monkeypatch):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            '_HOMES = {"lazy_only": "mod"}\n'
            "def __getattr__(name):\n"
            "    return _HOMES[name]\n")
        (package / "mod.py").write_text(
            '"""`only_in_tests` named in a docstring is no use."""\n'
            '__all__ = ["only_in_tests", "lazy_only", "used"]\n'
            "def only_in_tests():\n"
            '    """only_in_tests: a test calls me."""\n'
            "def lazy_only():\n"
            "    pass  # lazy_only\n"
            "def used():\n"
            "    return 1\n"
            "def by_string():\n"
            "    pass\n"
            "def allowed():\n"
            "    pass\n"
            "class Kept:\n"
            "    def method(self):\n"
            "        return used(), getattr(self, 'by_string')\n"
            "    def _private(self):\n"
            "        pass\n")
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "run.py").write_text(
            "from pkg.mod import Kept\nKept().method()\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from pkg.mod import allowed, lazy_only, only_in_tests\n"
            "only_in_tests(), lazy_only(), allowed()\n")
        monkeypatch.setattr(lint, "DEAD_ALLOWLIST",
                            {"allowed": "a reason"})
        findings = list(lint.check_dead_definitions(tmp_path))
        assert [(f[0], f[1], f[3]) for f in findings] == [
            ("src/pkg/mod.py", 3, "DEAD001"),
            ("src/pkg/mod.py", 5, "DEAD001")]
        assert "'only_in_tests'" in findings[0][4]
        assert "'lazy_only'" in findings[1][4]

    def test_spellings_and_same_named_bindings_are_no_use(self, tmp_path):
        # A method is reached only as an attribute: a local variable of
        # its name, a string spelling it and a binding of its name are
        # not uses of it.
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            'TAGS = ("spelled",)\n'
            "class Labeler:\n"
            "    def classes(self):\n"
            "        return {}\n"
            "    def spelled(self):\n"
            "        pass\n"
            "    def read(self):\n"
            "        return 1\n"
            "def rebound():\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n")
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "run.py").write_text(
            "import pkg.mod\n"
            "from pkg.mod import Labeler\n"
            "classes = {}\n"
            "print(classes)\n"
            "rebound = None\n"
            "Labeler().read()\n"
            "pkg.mod.by_attribute()\n")
        findings = list(lint.check_dead_definitions(tmp_path))
        assert sorted((f[1], f[4].split(" is ")[0]) for f in findings) == [
            (3, "method 'classes'"), (5, "method 'spelled'"),
            (9, "function 'rebound'")]


def test_execute_request_has_one_serving_call_site():
    # One request pipeline: Deployment.serve is the serving call site,
    # core/consistency.py's raw replay is the reference it is checked
    # against.  A third caller is a second pipeline growing back.
    package = ROOT / "src" / "repro"
    callers = sorted(
        str(path.relative_to(package)) for path in package.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if ".execute_request(" in line)
    assert callers == ["core/consistency.py", "core/deployment.py"]


_INSTRUMENTS = {"counter", "gauge", "histogram", "span", "span_of",
                "detached"}


def _source_names():
    """Every string literal in ``src/``, and the literal names handed to
    ``registry.counter/gauge/histogram`` (or a ``labels(...)`` view),
    ``tracer.span`` / ``tracer.detached`` or a bound ``span_of``, each
    with one place that
    emits it."""
    literals, emitted = set(), {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.Call) and node.args:
                func, first = node.func, node.args[0]
                called = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if called in _INSTRUMENTS \
                        and isinstance(first, ast.Constant) \
                        and isinstance(first.value, str):
                    emitted.setdefault(first.value,
                                       f"{path.name}:{node.lineno}")
    return literals, emitted


def _documented_names(text):
    """Series from the first column of every ``| Series |`` table, and
    spans from the tree under "The span hierarchy"."""
    names = set()
    in_table = False
    for line in text.splitlines():
        if line.startswith("| Series |"):
            in_table = True
        elif in_table and line.startswith("|"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        else:
            in_table = False
    tree = re.search(r"## The span hierarchy.*?```text\n(.*?)```", text,
                     re.S).group(1)
    # A span is the name a tree line starts with, padded to its column.
    names.update(re.findall(r"^[│ ]*(?:[├└]─ )?([a-z_.]+) {2,}", tree,
                            re.M))
    return names


def test_observability_catalog_matches_the_code():
    # docs/observability.md is the catalog: every series and span the
    # code emits is in it, and every one it lists is still emitted —
    # where a name is passed through (``latency_series="..."``, a
    # helper's argument), as a string literal somewhere in src/.
    text = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    literals, emitted = _source_names()
    undocumented = sorted(
        f"{name} ({where})" for name, where in emitted.items()
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", text))
    assert undocumented == [], undocumented
    documented = _documented_names(text)
    # The parser found every table: a name from each of the six series
    # tables and one from the span tree.
    assert {"online.request.ms", "serving.admitted", "netserve.connections",
            "streams.ingested", "storage.binlog.appends", "ctl.splits",
            "encode"} <= documented
    assert sorted(documented - literals) == []

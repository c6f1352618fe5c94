"""Every name a module of the package imports is used in that module, every
name the package defines is named somewhere outside its own definition and
outside the tests, lstm.predict_batches is the package's only forward-only
pass, dataset.parse_timestamp is its only timestamp parser,
TimeSeriesPanel.index_of its only map from a time to a row,
dataset.normalize and dataset.denormalize, the one scaling rule and its
inverse, the only functions that read a normalizer's spans, and dataset.py,
which reads a panel CSV in blocks, makes no read of a whole file."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dlstf"
# __init__.py imports the package's public names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
WORD = re.compile(r"[A-Za-z_]\w*")


def outside_the_tests(path: str) -> bool:
    """Whether the file at `path`, relative to the repository root, is code
    that runs outside the tests: a package module other than __init__.py, or
    a bench file other than its test_*.py."""
    parts = Path(path).parts
    name = parts[-1]
    if parts[:2] == ("src", "dlstf"):
        return name != "__init__.py"
    return parts[0] == "bench" and not name.startswith("test_")


# the code that must name every definition of the package
SEARCHED = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")
                  if outside_the_tests(str(p.relative_to(ROOT))))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def definitions(source: str) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of every module-level function
    and class, every method of such a class but the dunders, and every field
    of such a class that is a dataclass."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node.name, node.lineno, node.end_lineno))
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                name = item.name
            elif is_dataclass and isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            found.append((f"{node.name}.{name}", item.lineno, item.end_lineno))
    return found


def named_lines(source: str) -> dict[str, set[int]]:
    """The lines on which each identifier occurs in code or in a string literal
    of `source`; comments do not count."""
    lines: dict[str, set[int]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            continue
        for k, text in enumerate(tok.string.split("\n")):
            for word in WORD.findall(text):
                lines.setdefault(word, set()).add(tok.start[0] + k)
    return lines


def unnamed_definitions(defining: dict[str, str], searched: dict[str, str]) -> list[str]:
    """Definitions of the `defining` sources (by file name) whose name occurs in
    no `searched` source (by file name) outside the definition's own lines."""
    names = {f: named_lines(src) for f, src in searched.items()}
    unnamed = []
    for file, source in defining.items():
        for qualname, first, last in definitions(source):
            word = qualname.rpartition(".")[2]
            if not any(f != file or not first <= line <= last
                       for f, found in names.items() for line in found.get(word, ())):
                unnamed.append(f"{file}: {qualname} (line {first})")
    return unnamed


def scopes_where(module: str, source: str, hit) -> list[str]:
    """The qualified name of the function, class or module of `source` that
    holds each node for which `hit(node)` is true."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif hit(child):
                found.append(scope)
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def passes_keep_cache(node) -> bool:
    """Whether `node` is a call that passes keep_cache other than a literal
    True, by keyword or as net_forward's third argument."""
    if not isinstance(node, ast.Call):
        return False
    flags = [k.value for k in node.keywords if k.arg == "keep_cache"]
    if ast.unparse(node.func).endswith("net_forward"):
        flags += node.args[2:3]
    return any(not (isinstance(f, ast.Constant) and f.value is True) for f in flags)


def reads_spans(node) -> bool:
    """Whether `node` reads an attribute named spans, as a normalizer's is."""
    return isinstance(node, ast.Attribute) and node.attr == "spans" \
        and isinstance(node.ctx, ast.Load)


# datetime parsers that read one-digit fields, non-ASCII digits or other forms
# that dataset.parse_timestamp refuses
LENIENT_PARSERS = ("strptime", "fromisoformat")
# a second rule from a time to a row, beside TimeSeriesPanel.index_of's t0 + k hours
ROW_LOOKUPS = ("searchsorted",)


def calls_named(source: str, names: tuple[str, ...]) -> list[str]:
    """`name (line N)` for every call of `source` to a function or method
    named in `names`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append(f"{name} (line {node.lineno})")
    return found


# file methods that read all of a file; a read() is one too unless it is given a size
WHOLE_FILE_READS = ("readlines", "read_text", "read_bytes")


def whole_file_reads(source: str) -> list[str]:
    """`name (line N)` for every call of `source` to a method named in
    WHOLE_FILE_READS, or to read() with no size, a size of None or of -1."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        size = node.args[:1] + [k.value for k in node.keywords if k.arg == "size"]
        if name in WHOLE_FILE_READS or name == "read" and (
                not size or ast.unparse(size[0]) in ("None", "-1")):
            found.append((node.lineno, node.col_offset, f"{name} (line {node.lineno})"))
    return [text for *_, text in sorted(found)]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["pi (line 2)"]


def test_every_definition_is_named_elsewhere():
    defining = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in MODULES}
    searched = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SEARCHED}
    assert unnamed_definitions(defining, searched) == []


def test_detects_a_definition_only_the_tests_reach():
    lib = "def served():\n    return 1\n\ndef tested():\n    return 2\n"
    files = {"src/dlstf/lib.py": lib,
             "src/dlstf/__init__.py": "from .lib import served, tested\n",
             "bench/run.py": "from dlstf.lib import served\nprint(served())\n",
             "bench/test_lib.py": "from dlstf import tested\nassert tested() == 2\n",
             "tests/test_lib.py": "from dlstf.lib import tested\n",
             "demos/run.py": "from dlstf.lib import tested\n"}
    searched = {f: src for f, src in files.items() if outside_the_tests(f)}
    assert sorted(searched) == ["bench/run.py", "src/dlstf/lib.py"]
    assert unnamed_definitions({"src/dlstf/lib.py": lib}, searched) == [
        "src/dlstf/lib.py: tested (line 4)"]


def test_predict_batches_is_the_only_forward_only_pass():
    callers = [name for p in MODULES
               for name in scopes_where(p.stem, p.read_text(encoding="utf-8"), passes_keep_cache)]
    assert callers == ["lstm.predict_batches"]


def test_detects_a_forward_only_caller():
    source = ("def a(net, x):\n    return net_forward(net, x, keep_cache=False)\n\n"
              "class B:\n    def b(self, x):\n        return lstm.net_forward(self.net, x, False)\n\n"
              "def c(net, x):\n    def inner(flag):\n        return run(x, keep_cache=flag)\n"
              "    return net_forward(net, x, keep_cache=True)\n")
    assert scopes_where("m", source, passes_keep_cache) == ["m.a", "m.B.b", "m.c.inner"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_lenient_timestamp_parser(module):
    assert calls_named(module.read_text(encoding="utf-8"), LENIENT_PARSERS) == []


def test_detects_a_lenient_timestamp_parser():
    source = ("from datetime import date, datetime\nimport time\n"
              "from time import strptime\n\n"
              "def a(text):\n    return datetime.strptime(text, '%Y')\n\n"
              "def b(text):\n    return date.fromisoformat(text), time.strptime(text)\n\n"
              "def c(text):\n    # strptime in a comment, and as a string: 'strptime'\n"
              "    return strptime(text, '%H'), datetime.now().fromisoformat(text)\n")
    assert calls_named(source, LENIENT_PARSERS) == [
        "strptime (line 6)", "fromisoformat (line 9)", "strptime (line 9)",
        "strptime (line 13)", "fromisoformat (line 13)"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_one_time_to_row_rule(module):
    assert calls_named(module.read_text(encoding="utf-8"), ROW_LOOKUPS) == []


def test_detects_a_second_time_to_row_rule():
    source = ("import numpy as np\nfrom numpy import searchsorted\n\n"
              "def a(ts, t):\n    return int(np.searchsorted(ts, t, side='right'))\n\n"
              "def b(panel, t):\n    # searchsorted in a comment, and as a string: 'searchsorted'\n"
              "    return panel.timestamps.searchsorted(t), searchsorted(panel.timestamps, t)\n")
    assert calls_named(source, ROW_LOOKUPS) == [
        "searchsorted (line 5)", "searchsorted (line 9)", "searchsorted (line 9)"]


def test_dataset_reads_no_whole_file():
    assert whole_file_reads((PACKAGE / "dataset.py").read_text(encoding="utf-8")) == []


def test_detects_a_whole_file_read():
    source = ("from pathlib import Path\n\n"
              "def a(path):\n    with open(path) as fh:\n        return fh.read()\n\n"
              "def b(path):\n    return Path(path).read_text(), Path(path).read_bytes()\n\n"
              "def c(fh, n):\n    # fh.read() in a comment, and as a string: 'fh.readlines()'\n"
              "    return fh.readlines(), fh.read(None), fh.read(-1), fh.read(size=-1)\n\n"
              "def d(fh, n):\n    return fh.read(4096), fh.read(n), fh.read(size=n), read()\n")
    assert whole_file_reads(source) == [
        "read (line 5)", "read_text (line 8)", "read_bytes (line 8)", "readlines (line 12)",
        "read (line 12)", "read (line 12)", "read (line 12)"]


def test_one_scaling_rule():
    readers = {name for p in MODULES
               for name in scopes_where(p.stem, p.read_text(encoding="utf-8"), reads_spans)}
    assert sorted(readers) == ["dataset.denormalize", "dataset.normalize"]


def test_detects_a_second_scaling_rule():
    source = ("def a(nz, x):\n    return (x - nz.mins) / nz.spans\n\n"
              "class B:\n    def b(self, x):\n        return x * self.normalizer.spans\n\n"
              "def c(nz):\n    # nz.spans in a comment, and as a string: 'nz.spans'\n"
              "    nz.spans = None\n    def inner(w):\n        return w / nz.spans[0]\n"
              "    return inner\n")
    assert scopes_where("m", source, reads_spans) == ["m.a", "m.B.b", "m.c.inner"]


def test_detects_an_unnamed_definition():
    lib = ("from dataclasses import dataclass\n\n"
           "@dataclass\nclass Box:\n    size: int\n    spare: int = 0\n\n"
           "    def grow(self):\n        return Box(self.size + 1)\n\n"
           "    def shrink(self):\n        return self.shrink()\n\n"
           "def helper():\n    # helper is not called\n    return 'Box'\n")
    user = "from lib import Box\nprint(Box(1).grow().size)\n"
    assert unnamed_definitions({"lib.py": lib}, {"lib.py": lib, "user.py": user}) == [
        "lib.py: Box.spare (line 6)", "lib.py: Box.shrink (line 11)",
        "lib.py: helper (line 14)"]

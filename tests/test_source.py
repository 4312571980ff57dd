"""Static checks of the package source, with the standard library's ast module, and of
the names its docs cite."""

import ast
import re
import shlex
from importlib import import_module
from pathlib import Path

import pytest

from occuscan.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "occuscan"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name a module imports is used somewhere in it (``from __future__`` excepted)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


def _module_level_names(tree: ast.Module):
    """(line, name) of each function, class and assignment target at a module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def test_every_private_name_is_read():
    """Each module-level ``_name`` in the package is read somewhere in it.

    A name counts as read where it is loaded, taken as an attribute, or
    imported into another module; dunder names are left out.
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = sorted((module, line, name) for module, tree in trees.items()
                  for line, name in _module_level_names(tree)
                  if name.startswith("_") and not name.startswith("__") and name not in read)
    assert not dead, f"private names that nothing reads (module, line, name): {dead}"


def _names_numpy_random(node) -> bool:
    """Whether an ast node is ``np.random``, ``numpy.random`` or an import of it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) and \
            node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[:2] == ["numpy", "random"] or \
            node.module == "numpy" and any(a.name == "random" for a in node.names)
    return False


def test_only_synth_names_numpy_random():
    """numpy.random is named only in synth.py, where frames are drawn.

    Its import adds about 6 MB of peak RSS, so a process that draws nothing
    (simulate's, when pool workers draw; analyze; report) must not load it.
    """
    uses = sorted((path.name, node.lineno) for path in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if _names_numpy_random(node))
    assert [use for use in uses if use[0] != "synth.py"] == [], uses


def _cited_names(text: str):
    """Each module.name a document cites, module one of the package's; file names such
    as synth.py, example-scenario.yaml and .iq.meta are left out."""
    for module, name in re.findall(r"(?<![\w.-])(\w+)\.(\w+)", text):
        if (SRC / f"{module}.py").is_file() and not (SRC / f"{module}.{name}").is_file():
            yield module, name


@pytest.mark.parametrize("doc", [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))],
                         ids=lambda p: p.name)
def test_every_cited_name_exists(doc):
    """Each module.name in the README and the docs is a name of occuscan.<module>."""
    cited = sorted(set(_cited_names(doc.read_text(encoding="utf-8"))))
    missing = [f"{m}.{n}" for m, n in cited if not hasattr(import_module(f"occuscan.{m}"), n)]
    assert not missing, f"{doc.name} cites names its modules lack: {missing}"


def _command_lines(text: str):
    """Each ``occuscan ...`` command line in a document's fenced blocks, with its
    backslash continuations joined."""
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("occuscan "):
                yield line


def test_every_documented_command_parses():
    """Each command line the README and the docs show is one the CLI accepts."""
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    lines = [line for doc in docs for line in _command_lines(doc.read_text(encoding="utf-8"))]
    assert {shlex.split(line)[1] for line in lines} == {
        "calibrate", "simulate", "report", "eval", "analyze"}
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"the CLI refuses a documented command line: {line}")

"""The source tree itself: what git tracks agrees with .gitignore, and every
public library name is reached by something other than its own tests."""

import ast
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multicurve"

# public names that no command, verify check or benchmark reaches, kept on
# purpose: name -> why
KEEP = {
    "in_lambda": "semigroup membership oracle of the lattice-ball tests and "
    "their exact-rational brute force",
}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # a tracked file that .gitignore excludes is generated output committed
    # by mistake, or an ignore rule that no longer means anything
    try:
        top = _git("rev-parse", "--show-toplevel")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def _definitions(tree):
    """(name, first line, last line) of each public function, class and
    constant defined by a top-level statement of a module, except those a
    decorator of the same module registers (verify's checks), and of each
    public method of a top-level class, named Class.method."""
    local = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            heads = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id in local for d in heads):
                continue
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield "%s.%s" % (node.name, item.name), item.lineno, item.end_lineno


def _uses(tree):
    """(name, line, bare) of each place a module can name a library
    definition: attribute accesses, from-imports and string constants
    (perfbench wraps functions by name), and bare names, which can only
    mean a definition of the same module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno, True


def test_every_public_library_name_is_reached():
    """Each top-level public function, class and constant under
    src/multicurve is named outside tests/: by another library module, by
    perfbench/, or by a line of its own module outside its own definition.
    A use from inside a definition that is itself unreached does not count,
    so code that only dead code calls is reported too.  A name that only
    its tests reach is code that no command, check or benchmark runs:
    delete it with its tests, or list it in KEEP with the reason.

    A public method of a top-level class, Class.method, is reached by an
    attribute access of its name alone: it is called through an instance,
    which a scan of names cannot follow to its class, so an access of the
    same name on any object counts.  Dunders, which the language calls,
    and class attributes are out of scope.  So is a function that a
    decorator of its own module registers: the registry, not its name, is
    how it is reached.
    """
    lib = sorted(SRC.rglob("*.py"))
    files = lib + sorted((ROOT / "perfbench").rglob("*.py"))
    defs = {}  # (file, name) -> (first line, last line)
    uses = {}  # name -> {(file, line, bare)}
    for f in files:
        tree = ast.parse(f.read_text(encoding="utf-8"), str(f))
        if f in lib:
            for name, first, last in _definitions(tree):
                defs[f, name] = (first, last)
        for name, line, bare in _uses(tree):
            uses.setdefault(name, set()).add((f, line, bare))

    def inside(f, line, spans):
        return any(f == g and first <= line <= last for g, first, last in spans)

    def users(home, name):
        # where a use can name the definition: a method by attribute only
        attr = name.rpartition(".")[2]
        return [(f, line) for f, line, bare in uses.get(attr, ())
                if not bare or (f == home and attr == name)]

    dead = set()
    while True:  # grows until no use of a live name lies in dead code
        dead_spans = [(f, *defs[f, name]) for f, name in dead]
        now = {
            (home, name) for (home, name), span in defs.items()
            if name not in KEEP and not any(
                not inside(f, line, [(home, *span)] + dead_spans)
                for f, line in users(home, name))
        }
        if now == dead:
            break
        dead = now

    found = sorted("%s.%s" % (f.relative_to(SRC).with_suffix(""), name) for f, name in dead)
    assert found == [], "reached only from tests/: " + ", ".join(found)

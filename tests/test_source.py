"""The package holds no code that only the tests call: every public function,
class and method defined in `src/reuse_alloc`, and every private function,
class and constant at a module's top level, is named somewhere in the
package or in `perfbench/` outside its own definition. A name counts as an
identifier, an attribute, an imported name or a string constant (the
benchmark's tracer patches functions by name). Names are matched alone, not
by module, so this is a lower bound on what is unused. Oracles that only
tests need belong in `tests/helpers.py`. And no docstring in the package, nor
README.md, names in backquotes an identifier that the package and
`perfbench/` (or, for README.md, `tests/`) no longer hold."""

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The paper's library functions that no command calls.
PAPER_FUNCTIONS = {
    "benchmarks.brute_force_clairvoyant",
    "distributions.compute_L",
    "generators.stochastic_rewards_to_reuse",
}


def _names(node) -> Counter:
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names[n.value] += 1
    return names


def _public_definitions(tree, module):
    """(qualified name, name, node) of the module's public functions and
    classes and of the public methods of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{module}.{node.name}.{m.name}", m.name, m


def _private_definitions(tree, module):
    """(qualified name, name, node) of the module's private functions,
    classes and constants (module-level names bound by an assignment)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield f"{module}.{name}", name, node


def _trees() -> tuple:
    """The package's module paths, and the parsed tree of every module in
    the package and in `perfbench/` by path."""
    package = sorted((ROOT / "src" / "reuse_alloc").glob("*.py"))
    paths = package + sorted((ROOT / "perfbench").glob("*.py"))
    return package, {path: ast.parse(path.read_text()) for path in paths}


def unreferenced(definitions=_public_definitions) -> set:
    package, trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return {qual for path in package for qual, name, node in definitions(trees[path], path.stem)
            if used[name] <= _names(node)[name]}


def test_every_public_name_in_the_package_has_a_caller():
    assert unreferenced() - PAPER_FUNCTIONS == set()


def test_every_private_module_name_in_the_package_has_a_caller():
    assert unreferenced(_private_definitions) == set()


def _known(trees) -> set:
    """The names of `trees` as `_names` counts them, keyword arguments too,
    and the builtins."""
    known = set(dir(builtins))
    for tree in trees:
        known |= set(_names(tree))
        known |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.keyword) and n.arg}
    return known


def _readme_names():
    """(span, word) for each name in a backquoted span of README.md outside
    its code fences. Paths, CLI flags, globs and plain lowercase words (prose
    such as `true`, or an instance name) are skipped; each part of a dotted
    name is kept."""
    prose = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    for span in re.findall(r"`([^`]+)`", prose):
        code = re.sub(r"\S*/\S*|\S+\.(?:py|md|json|csv|toml|txt)\b|(?<![\w-])-[\w-]+", " ", span)
        for dotted in re.findall(r"(?<![\w*-])(?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*(?![\w*-])", code, flags=re.ASCII):
            parts = dotted.split(".")
            yield from ((span, w) for w in parts if len(parts) > 1 or not re.fullmatch(r"[a-z]+\d*", w))


def test_every_name_in_a_docstring_names_something():
    """Each identifier in a backquoted span of a package docstring is a name
    in the package or in `perfbench/` or a builtin, and each name in one of
    README.md's (see `_readme_names`) is one of those or a name in `tests/`:
    neither can name what was removed."""
    package, trees = _trees()
    known = _known(trees.values())
    stale = set()
    for path in package:
        for node in ast.walk(trees[path]):
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(node):
                for span in re.findall(r"`([^`]+)`", ast.get_docstring(node)):
                    words = re.findall(r"(?<!\w)[A-Za-z_]\w*", span)
                    stale |= {(path.stem, span, w) for w in words if w not in known}
    known |= _known(ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py")))
    stale |= {("README.md", span, w) for span, w in _readme_names() if w not in known}
    assert stale == set()

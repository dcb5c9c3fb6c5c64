"""The package holds no code that only the tests call: every public function,
class and method defined in `src/reuse_alloc` is named somewhere in the
package or in `perfbench/` outside its own definition. A name counts as an
identifier, an attribute, an imported name or a string constant (the
benchmark's tracer patches functions by name). Names are matched alone, not
by module, so this is a lower bound on what is unused. Oracles that only
tests need belong in `tests/helpers.py`."""

import ast
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


def unreferenced() -> set:
    package = sorted((ROOT / "src" / "reuse_alloc").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return {qual for path in package for qual, name, node in _public_definitions(trees[path], path.stem)
            if used[name] <= _names(node)[name]}


def test_every_public_name_in_the_package_has_a_caller():
    assert unreferenced() - PAPER_FUNCTIONS == set()

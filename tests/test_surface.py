"""Every module-level function and class of the package has a caller.

A definition that nothing in src/entcert or perfbench references is
library surface that no pipeline runs; it goes, together with the tests
that exercise it, unless the tests compare against it as a reference.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# reached only from tests, and kept because tests compare against them
TEST_REFERENCES = {
    "verify_solution": "tests re-check the solver's certificates with it",
    "photon_subtracted_ideal": "tests compare the conditional state and its LN to it",
}


def _names(tree) -> Counter:
    """How often each name is read, as a bare name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_definition_has_a_caller():
    paths = sorted((ROOT / "src" / "entcert").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    defined, uncalled = set(), []
    for path, tree in trees.items():
        if path.parent.name != "entcert":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            # a definition's reads of its own name (recursion) do not count
            if used[node.name] == _names(node)[node.name] and node.name not in TEST_REFERENCES:
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert uncalled == []
    assert set(TEST_REFERENCES) <= defined

"""Every module-level function and class of the package has a caller,
and every defaulted parameter or dataclass field is passed by some call.

A definition that nothing in src/entcert or perfbench references is
library surface that no pipeline runs; it goes, together with the tests
that exercise it, unless the tests compare against it as a reference.  The
same holds for a default that no call overrides: the branch it selects
runs in no pipeline.

The pipeline also imports no scipy module and loads no scipy library:
scipy's Python layer costs more to import than the package, and every BLAS
and LAPACK call of a bound runs in the one OpenBLAS that numpy's wheel
bundles, so the process holds one runtime and one thread control.
"""

import ast
import functools
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# reached only from tests, and kept because tests compare against them
TEST_REFERENCES = {
    "verify_solution": "tests re-check the solver's certificates with it",
    "photon_subtracted_ideal": "tests compare the conditional state and its LN to it",
}

# defaulted parameters passed only from tests
TEST_ARGUMENTS = {
    "sdp.solve.max_iter": "tests reach the max_iterations status through it",
    "sdp.solve.feas_tol": "tests reach the solver's residual-tolerance branches through it",
    "cli.main.argv": "tests drive the command line through it",
}


def _trees() -> dict:
    paths = sorted((ROOT / "src" / "entcert").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


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
    trees = _trees()
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


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted_parameters(fn, skip_self: bool):
    """(name, positional index or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if skip_self:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _defaults(path, tree):
    """(label, callee name, parameter, positional index, is a dataclass
    field) of each default defined at module level or in a class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg, i in _defaulted_parameters(node, False):
                yield f"{path.stem}.{node.name}.{arg}", node.name, arg, i, False
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [_callee(getattr(d, "func", d)) for d in node.decorator_list]
        if "dataclass" in decorators:
            fields = [
                s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            ]
            for i, s in enumerate(fields):
                if s.value is not None:
                    yield f"{path.stem}.{node.name}.{s.target.id}", node.name, s.target.id, i, True
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = node.name if method.name == "__init__" else method.name
                for arg, i in _defaulted_parameters(method, True):
                    yield f"{path.stem}.{node.name}.{method.name}.{arg}", callee, arg, i, False


def _passes(call, callee, arg, index, is_field) -> bool:
    """Whether call can pass arg: by name, by position, through * or **
    expansion, or, for a dataclass field, through dataclasses.replace."""
    name = _callee(call.func)
    keywords = {k.arg for k in call.keywords}
    if is_field and name == "replace" and arg in keywords:
        return True
    if name != callee:
        return False
    if arg in keywords or None in keywords:
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_overridden_somewhere():
    trees = _trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    labels, unpassed = set(), []
    for path, tree in trees.items():
        if path.parent.name != "entcert":
            continue
        for label, callee, arg, index, is_field in _defaults(path, tree):
            labels.add(label)
            if label in TEST_ARGUMENTS:
                continue
            if not any(_passes(call, callee, arg, index, is_field) for call in calls):
                unpassed.append(label)
    assert unpassed == []
    assert set(TEST_ARGUMENTS) <= labels


@functools.lru_cache(maxsize=1)
def _fresh_bound() -> dict:
    """What a fresh interpreter holds after one n_max=2 bound: its scipy
    modules, the files it maps (None without /proc) and the number of
    OpenBLAS thread controls sdp found."""
    code = "\n".join(
        [
            "import contextlib, io, json, os, sys",
            f"sys.path.insert(0, {str(ROOT / 'src')!r})",
            "from entcert import cli, sdp",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['bound', '--n-max', '2']) == 0",
            "maps = None",
            "if os.path.exists('/proc/self/maps'):",
            "    with open('/proc/self/maps') as f:",
            "        fields = [line.split(maxsplit=5) for line in f]",
            "    maps = sorted({entry[5].strip() for entry in fields if len(entry) == 6})",
            "print(json.dumps({",
            "    'modules': sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),",
            "    'maps': maps,",
            "    'thread_controls': len(sdp._THREAD_CONTROLS),",
            "}))",
        ]
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_pipeline_imports_no_scipy_module():
    assert _fresh_bound()["modules"] == []


def test_pipeline_loads_one_blas_runtime():
    # scipy's wheel bundles a second OpenBLAS under scipy.libs; a bound
    # maps none of its files and pins the one runtime numpy bundles
    import scipy

    found = _fresh_bound()
    if found["maps"] is None:
        pytest.skip("no /proc/self/maps")
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    assert [path for path in found["maps"] if Path(path).parent == libs] == []
    assert found["thread_controls"] == 1

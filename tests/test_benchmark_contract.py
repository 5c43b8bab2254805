"""The benchmark harness reaches into the solver by name; those names exist.

``perfbench/child.py`` wraps solver functions by module and attribute name
(``tr.wrap(owner, "attr", ...)``), and ``perfbench/refclock.py`` replaces
``timestep.cn_step``.  A rename or deletion in ``src`` breaks traced
benchmark runs without failing anything else, so this suite reads both
files and resolves every target on the current modules.  A size function
passed to ``tr.wrap`` reads the target's leading arguments by position, so
its parameter names must lead the target's too.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from tempermg import assembly, fracquad, multigrid, timestep, toeplitz

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"assembly": assembly, "fracquad": fracquad, "multigrid": multigrid,
           "timestep": timestep, "toeplitz": toeplitz}


def _owner(node):
    """The object an owner expression such as ``multigrid.Hierarchy`` names."""
    if isinstance(node, ast.Name):
        return MODULES[node.id]
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(_owner(node.value), node.attr)


def _wrap_calls(tree):
    """Every ``tr.wrap*`` call in a parsed file."""
    return [call for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr.startswith("wrap")
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "tr"]


def wrapped_targets():
    """(owner source, attribute) of every ``tr.wrap*`` call in child.py."""
    tree = ast.parse((BENCH / "child.py").read_text())
    return [(ast.unparse(call.args[0]), call.args[1].value)
            for call in _wrap_calls(tree)]


def size_readers():
    """(owner source, attribute, positional parameter names of the size
    function) of every ``tr.wrap`` call in child.py that passes one, as a
    lambda or a function defined in child.py."""
    tree = ast.parse((BENCH / "child.py").read_text())
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    readers = []
    for call in _wrap_calls(tree):
        size = call.args[3] if len(call.args) > 3 else next(
            (kw.value for kw in call.keywords if kw.arg == "size"), None)
        if call.func.attr != "wrap" or size is None:
            continue
        if isinstance(size, ast.Name):
            size = defs[size.id]
        assert isinstance(size, (ast.Lambda, ast.FunctionDef)), ast.dump(size)
        names = tuple(arg.arg for arg in size.args.posonlyargs + size.args.args)
        readers.append((ast.unparse(call.args[0]), call.args[1].value, names))
    return readers


def timestep_targets():
    """Attributes refclock.py reads or replaces on the timestep module."""
    tree = ast.parse((BENCH / "refclock.py").read_text())
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "timestep"})


def test_harness_files_name_the_expected_targets():
    # the parse finds the targets, so an empty list cannot pass silently
    targets = wrapped_targets()
    assert {owner.split(".")[0] for owner, _ in targets} == set(MODULES)
    assert ("timestep", "cn_step") in targets
    assert ("multigrid.Hierarchy", "coarse_solve") in targets
    assert ("multigrid", "jacobi_smooth", ("level",)) in size_readers()
    assert timestep_targets() == ["cn_step"]


@pytest.mark.parametrize("owner, attr", wrapped_targets())
def test_every_wrapped_target_resolves(owner, attr):
    obj = _owner(ast.parse(owner, mode="eval").body)
    assert callable(getattr(obj, attr)), f"{owner}.{attr}"


@pytest.mark.parametrize("owner, attr, names", size_readers(),
                         ids=lambda value: value if isinstance(value, str)
                         else ",".join(value))
def test_size_readers_match_target_parameters(owner, attr, names):
    target = getattr(_owner(ast.parse(owner, mode="eval").body), attr)
    params = [p.name for p in inspect.signature(target).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert list(names) == params[:len(names)], f"{owner}.{attr}{params}"


@pytest.mark.parametrize("attr", timestep_targets())
def test_every_refclock_target_resolves(attr):
    assert callable(getattr(timestep, attr))
    # the time loop must call it through the module global refclock swaps
    assert attr in timestep.run_simulation.__code__.co_names


def test_harness_imports_only_existing_modules():
    # the package re-exports nothing, so each imported name must be a
    # submodule; find_spec looks it up without relying on this file's imports
    tree = ast.parse((BENCH / "child.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "tempermg"
             for alias in node.names]
    assert names
    for name in names:
        assert importlib.util.find_spec(f"tempermg.{name}") is not None, name

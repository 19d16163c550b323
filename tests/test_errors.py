"""Every refusal in the package raises one of four error types, all declared
in ``edcert.errors``: `ParseError` and `ValidationError` for bad input,
`CapExceeded` for work past a budget, `EdcertInternalError` for a bug.
Every `CapExceeded` is built by ``errors.check_budget``."""

import ast
import builtins
import inspect
from pathlib import Path

import pytest

import edcert
from edcert import errors

SOURCE = Path(edcert.__file__).parent
RAISED = {"ParseError", "ValidationError", "CapExceeded", "EdcertInternalError"}
# Python's immutability protocol: assigning an attribute raises AttributeError
PROTOCOL = {("permutation.py", "__setattr__", "AttributeError")}


def _trees():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _nodes(node, file, function="<module>"):
    """(file, innermost enclosing function, node) for every node under `node`."""
    for child in ast.iter_child_nodes(node):
        yield file, function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _nodes(child, file, inner)


def _raises(tree, file):
    """(file, innermost enclosing function, raised name) for every raise in
    `tree`; the name is None for a bare re-raise."""
    for file, function, node in _nodes(tree, file):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield file, function, None if exc is None else ast.unparse(exc)


def _is_exception(name: str) -> bool:
    name = name.rpartition(".")[2]
    cls = getattr(builtins, name, None) or getattr(errors, name, None)
    return inspect.isclass(cls) and issubclass(cls, BaseException)


def test_every_raise_names_one_of_the_four_error_types():
    found = {r for file, tree in _trees() for r in _raises(tree, file)}
    assert len(found) > 20  # the walk reached the package
    assert PROTOCOL <= found
    wrong = {r for r in found if r[2] is not None and r[2] not in RAISED and r not in PROTOCOL}
    assert not wrong


def test_errors_declares_the_base_and_the_four_types_only():
    declared = {name for name, obj in vars(errors).items() if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert declared == RAISED | {"EdcertError"}
    assert all(issubclass(getattr(errors, name), errors.EdcertError) for name in RAISED - {"EdcertInternalError"})
    assert issubclass(errors.EdcertInternalError, AssertionError)  # a bug, never a usage error


def test_every_exception_class_is_declared_in_errors():
    elsewhere = [
        (file, node.name)
        for file, tree in _trees() if file != "errors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(_is_exception(ast.unparse(base)) for base in node.bases)
    ]
    assert not elsewhere


def test_check_budget_is_the_one_place_a_cap_overrun_is_built():
    built = [
        (file, function)
        for name, tree in _trees()
        for file, function, node in _nodes(tree, name)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "CapExceeded"
    ]
    assert built == [("errors.py", "check_budget")]


def test_check_budget_raises_one_past_the_limit():
    limit = errors.BUDGETS["oracle_search"]
    errors.check_budget("oracle_search", limit, "order {needed} exceeds {cap}")  # at the limit: no raise
    with pytest.raises(errors.CapExceeded) as raised:
        errors.check_budget("oracle_search", limit + 1, "order {needed} exceeds {cap}")
    exc = raised.value
    assert (exc.budget, exc.needed, exc.cap) == ("oracle_search", limit + 1, limit)
    assert str(exc) == f"order {limit + 1} exceeds {limit}"
    errors.check_budget("enumeration", 10, "{needed} > {cap}", cap=10)
    with pytest.raises(errors.CapExceeded) as raised:
        errors.check_budget("enumeration", 11, "{needed} > {cap}", cap=10)
    assert (raised.value.budget, raised.value.cap, str(raised.value)) == ("enumeration", 10, "11 > 10")
    with pytest.raises(KeyError):  # the enumeration cap is each group's, so no budget declares it
        errors.check_budget("enumeration", 1, "{needed} > {cap}")

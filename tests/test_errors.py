"""Every refusal in the package raises one of four error types, all declared
in ``edcert.errors``: `ParseError` and `ValidationError` for bad input,
`CapExceeded` for work past a budget, `EdcertInternalError` for a bug."""

import ast
import builtins
import inspect
from pathlib import Path

import edcert
from edcert import errors

SOURCE = Path(edcert.__file__).parent
RAISED = {"ParseError", "ValidationError", "CapExceeded", "EdcertInternalError"}
# Python's immutability protocol: assigning an attribute raises AttributeError
PROTOCOL = {("permutation.py", "__setattr__", "AttributeError")}


def _trees():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _raises(node, file, function="<module>"):
    """(file, innermost enclosing function, raised name) for every raise
    under `node`; the name is None for a bare re-raise."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield file, function, None if exc is None else ast.unparse(exc)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _raises(child, file, inner)


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

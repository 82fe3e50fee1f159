"""Package hygiene: every module-level import of the package is read.

A stdlib-``ast`` scan of ``finance_sc_relations_ray/``. An import whose
bound name the module never reads is a dead dependency, and after a
family is cut it is the usual leftover. A name counts as read when it
is loaded anywhere in the module (functions included), or when it
appears in a string annotation, so ``import ray`` used only in
``-> "ray.data.Dataset"`` passes."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "finance_sc_relations_ray"


def _module_imports(tree: ast.Module):
    """(line, bound name) of each import at module level, including
    those under a module-level ``if`` / ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield node.lineno, a.asname or a.name
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))


def _loaded(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [a.vararg, a.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> set[str]:
    read = _loaded(tree)
    # string annotations: "ray.data.Dataset", list["pd.DataFrame"], ...
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    read |= _loaded(ast.parse(n.value, mode="eval"))
                except SyntaxError:
                    pass
    return read


def test_package_has_no_unused_module_imports():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _names_read(tree)
        found += [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
                  for line, name in sorted(_module_imports(tree))
                  if name not in read]
    assert found == [], "unused imports:\n" + "\n".join(found)

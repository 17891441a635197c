"""Hygiene rule: a module-level import the module never reads.

The offline twin of ruff's F401, so the check runs where ruff cannot be
installed.  Exempt, as under the project's ruff configuration: package
``__init__.py`` files (façades re-export), names listed in ``__all__``,
and lines marked ``# noqa: F401`` (a deliberate re-export).  A name
counts as read when it is loaded anywhere in the module -- function
bodies included -- or named inside a string annotation
(``net: "DexNetwork"`` under an ``if TYPE_CHECKING:`` import).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.staticcheck.engine import Finding, ModuleInfo
from repro.analysis.staticcheck.rules.base import Rule

_NOQA = "noqa: F401"


def _module_imports(body: list[ast.stmt]) -> Iterator[tuple[str, ast.alias]]:
    """``(bound name, alias)`` for every import at module level,
    including those under module-level ``if`` / ``try`` / ``with``
    blocks; ``def`` and ``class`` bodies are not module level."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], alias
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            nested = [*node.body, *getattr(node, "orelse", []), *getattr(node, "finalbody", [])]
            for handler in getattr(node, "handlers", []):
                nested.extend(handler.body)
            yield from _module_imports(nested)


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # prose, or a NUL byte: not a name
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _read_names(tree: ast.Module) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read.update(_annotation_names(node.returns))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read.update(
                    n.value
                    for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
    return read


class UnusedImportRule(Rule):
    ids = ("hygiene/unused-import",)
    description = (
        "a module-level import whose bound name the module never reads "
        "(package __init__.py, __all__ names and `# noqa: F401` lines exempt)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.path.name == "__init__.py":
            return
        read = _read_names(module.tree)
        for name, alias in _module_imports(module.tree.body):
            if name in read or _NOQA in module.lines[alias.lineno - 1]:
                continue
            yield Finding(
                self.ids[0],
                module.rel,
                alias.lineno,
                alias.col_offset,
                f"`{name}` is imported but never read; delete the import "
                "(or list it in __all__ / mark it `# noqa: F401` if it is a re-export)",
            )

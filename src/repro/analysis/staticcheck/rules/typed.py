"""Typing rule: in the packages mypy gates, every ``def`` is annotated.

The offline subset of mypy's ``disallow_untyped_defs`` /
``disallow_incomplete_defs``, so the typing gate's most common failure
is caught where mypy cannot be installed.  The scope is the one package
list both tools read: ``[tool.mypy] packages`` of the nearest
``pyproject.toml`` above the module, resolved against its
``mypy_path``.  In scope, every ``def`` -- nested ones included --
annotates its return and every parameter except a leading ``self`` /
``cls``; as in mypy, an ``__init__`` with at least one annotated
parameter may omit the return.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.staticcheck.engine import Finding, ModuleInfo
from repro.analysis.staticcheck.rules.base import Rule, tool_config


def _gated_roots(directory: Path) -> tuple[Path, ...]:
    """Where the mypy-gated packages live, per the nearest
    ``pyproject.toml`` at or above ``directory`` (none, or one that does
    not parse: nothing gated)."""
    folder, tool = tool_config(directory)
    mypy = tool.get("mypy", {})
    base = folder / mypy.get("mypy_path", ".")
    return tuple(base.joinpath(*p.split(".")) for p in mypy.get("packages", ()))


def _unannotated(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    params = [*args.posonlyargs, *args.args]
    if params and params[0].arg in ("self", "cls"):
        params = params[1:]
    params += [*args.kwonlyargs, *(a for a in (args.vararg, args.kwarg) if a)]
    missing = [p.arg for p in params if p.annotation is None]
    init_exempt = fn.name == "__init__" and len(missing) < len(params)
    if fn.returns is None and not init_exempt:
        missing.append("return")
    return missing


class UntypedDefRule(Rule):
    ids = ("typing/untyped-def",)
    description = (
        "a def in a [tool.mypy] package without a return or parameter "
        "annotation (leading self/cls, and __init__'s return when a "
        "parameter is annotated, exempt)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        path = module.path.resolve()
        if not any(
            root in path.parents or path == root.with_suffix(".py")
            for root in _gated_roots(path.parent)
        ):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                missing = _unannotated(node)
                if missing:
                    yield Finding(
                        self.ids[0],
                        module.rel,
                        node.lineno,
                        node.col_offset,
                        f"`{node.name}` lacks annotations for: {', '.join(missing)}",
                    )

"""Rule base class and the AST helpers every rule family shares."""

from __future__ import annotations

import ast
import functools
import tomllib
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.analysis.staticcheck.engine import Finding, ModuleInfo


class Rule:
    """One check.  Subclasses declare the finding ids they may emit
    (``ids``) and implement :meth:`check`; the engine owns walking,
    suppression and reporting.  A rule must be *total*: it may not
    raise on any parseable module."""

    #: every finding id this rule can emit (used to validate directives)
    ids: tuple[str, ...] = ()
    #: one-line description for ``--list-rules`` and the docs
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted thing they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``import numpy.random`` -> ``{"numpy": "numpy"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``;
    ``from time import time as now`` -> ``{"now": "time.time"}``.

    Function-local rebinding is ignored on purpose: this feeds a lint,
    and a module that shadows ``time`` locally deserves the finding.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """The canonical dotted name a call target resolves to, or ``None``
    when the base is not an imported name (a local variable, an
    attribute of ``self``, ...)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def walk_skipping_nested_defs(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Every node under ``body`` that belongs to the *enclosing*
    function's own frame: nested ``def`` / ``async def`` bodies are not
    entered (they run in their own context -- a sync helper handed to
    an executor must not count as blocking the event loop)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def type_checking_linenos(tree: ast.Module) -> set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (annotation-only
    imports are exempt from the layering DAG)."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id
            if isinstance(test, ast.Name)
            else test.attr
            if isinstance(test, ast.Attribute)
            else None
        )
        if name == "TYPE_CHECKING":
            for stmt in node.body:
                end = stmt.end_lineno or stmt.lineno
                lines.update(range(stmt.lineno, end + 1))
    return lines


@functools.lru_cache(maxsize=None)
def tool_config(directory: Path) -> tuple[Path, dict[str, Any]]:
    """The folder of the nearest ``pyproject.toml`` at or above
    ``directory`` and its ``[tool]`` table; an empty table when there is
    none or it does not parse (a rule may not raise)."""
    for folder in (directory, *directory.parents):
        config = folder / "pyproject.toml"
        if config.is_file():
            try:
                return folder, tomllib.loads(config.read_text(encoding="utf-8")).get("tool", {})
            except tomllib.TOMLDecodeError:
                return folder, {}
    return directory, {}

"""The staticcheck layer: every rule family on seeded violations and
their clean twins, the suppression round-trip (with directive hygiene),
the JSON report schema, the CLI exit codes -- and the meta-test that
runs the real ``src/repro`` tree through the checker, so a regression
that introduces a violation (or a reasonless suppression) fails tier-1
here, not just in the CI gate."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import repro
from repro.analysis.staticcheck import ALL_RULES, SCHEMA, check_paths, rule_ids
from repro.analysis.staticcheck.__main__ import main as staticcheck_main
from repro.analysis.staticcheck.engine import write_json


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` under ``root``; the first path
    component is the module's layer, exactly as in ``src/repro``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def findings_of(report, rule: str) -> list:
    return [f for f in report.findings if f.rule == rule]


class TestDeterminismRules:
    def test_module_random_fires_in_engine_layers_only(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/bad.py": """
                    import random

                    def pick(xs):
                        return random.choice(xs)
                    """,
                "core/good.py": """
                    import random

                    def pick(rng: random.Random, xs):
                        return rng.choice(xs)
                    """,
                # same call, allowlisted layer: harness randomness is
                # seeded per-instance and out of the transcript oracle
                "harness/ok.py": """
                    import random

                    def jitter():
                        return random.random()
                    """,
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "determinism/module-random")
        assert [f.rel for f in hits] == ["core/bad.py"]
        assert "random.choice" in hits[0].message

    def test_module_random_sees_through_aliases(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "net/bad.py": """
                    import random as rnd
                    from random import shuffle

                    def scramble(xs):
                        shuffle(xs)
                        return rnd.randint(0, 9)
                    """,
            },
        )
        report = check_paths([tmp_path])
        assert len(findings_of(report, "determinism/module-random")) == 2

    def test_unseeded_rng_flags_bare_constructors(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "virtual/bad.py": """
                    import random
                    import numpy as np

                    def make():
                        return random.Random(), np.random.default_rng()
                    """,
                "virtual/good.py": """
                    import random
                    import numpy as np

                    def make(seed: int):
                        return random.Random(seed), np.random.default_rng(seed)
                    """,
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "determinism/unseeded-rng")
        assert len(hits) == 2
        assert all(f.rel == "virtual/bad.py" for f in hits)

    def test_wall_clock_flags_engine_layers_not_serving(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "net/bad.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
                "net/good.py": """
                    import time

                    def elapsed(t0):
                        return time.monotonic() - t0
                    """,
                "service/ok.py": """
                    import time

                    def created():
                        return time.time()  # user-facing timestamp
                    """,
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "determinism/wall-clock")
        assert [f.rel for f in hits] == ["net/bad.py"]


class TestAsyncSafetyRules:
    def test_blocking_calls_inside_async_def(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "service/bad.py": """
                    import time

                    async def handle(path):
                        time.sleep(0.1)
                        return open(path).read()
                    """,
                "service/good.py": """
                    import asyncio

                    async def handle():
                        await asyncio.sleep(0.1)

                    def sync_is_fine(path):
                        import time
                        time.sleep(0.1)
                        return open(path).read()
                    """,
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "async/blocking-call")
        assert len(hits) == 2
        assert all(f.rel == "service/bad.py" for f in hits)

    def test_nested_sync_def_is_not_the_async_frame(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "service/ok.py": """
                    import time

                    async def handle(loop):
                        def blocking_reader():
                            time.sleep(0.1)  # runs on the executor
                            return 1

                        return await loop.run_in_executor(None, blocking_reader)
                    """,
            },
        )
        report = check_paths([tmp_path])
        assert not findings_of(report, "async/blocking-call")

    def test_orphaned_future_is_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "service/bad.py": """
                    import asyncio

                    def submit(loop):
                        future = loop.create_future()
                        return None  # dropped: its awaiter hangs forever
                    """,
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "async/future-orphan")
        assert len(hits) == 1 and "future" in hits[0].message

    def test_registered_future_is_clean(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "service/ok.py": """
                    import asyncio

                    class Router:
                        def submit(self, loop, rid):
                            future = loop.create_future()
                            self._pending[rid] = future
                            return future
                    """,
            },
        )
        report = check_paths([tmp_path])
        assert not findings_of(report, "async/future-orphan")
        assert not findings_of(report, "async/future-exception-path")

    def test_await_before_registration_is_an_exception_hazard(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "service/bad.py": """
                    import asyncio

                    class Router:
                        async def submit(self, loop, rid):
                            future = loop.create_future()
                            await self.flush()  # raises -> future orphaned
                            self._pending[rid] = future
                            return await future
                    """,
                "service/good.py": """
                    import asyncio

                    class Router:
                        async def submit(self, loop, rid):
                            future = loop.create_future()
                            try:
                                await self.flush()
                            except OSError:
                                future.set_result(None)
                            self._pending[rid] = future
                            return await future
                    """,
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "async/future-exception-path")
        assert [f.rel for f in hits] == ["service/bad.py"]


class TestLayeringRule:
    def test_upward_import_is_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/bad.py": "from repro.service.gateway import Gateway\n",
                "service/ok.py": "from repro.core.dex import DexNetwork\n",
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "layering/import-dag")
        assert [f.rel for f in hits] == ["core/bad.py"]
        assert "rank" in hits[0].message

    def test_type_checking_imports_are_exempt(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "net/ok.py": """
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from repro.core.dex import DexNetwork

                    def degree(net: "DexNetwork") -> int:
                        return net.size
                    """,
            },
        )
        report = check_paths([tmp_path])
        assert not findings_of(report, "layering/import-dag")

    def test_unknown_package_is_a_finding_not_a_pass(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "newpkg/mod.py": "x = 1\n",
                "core/bad.py": "from repro.newpkg.mod import x\n",
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "layering/unknown-layer")
        assert {f.rel for f in hits} == {"newpkg/mod.py", "core/bad.py"}

    def test_nothing_imports_cli(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "harness/bad.py": "from repro.cli import main\n",
                "__init__.py": "from repro.cli import main\n",
            },
        )
        report = check_paths([tmp_path])
        hits = findings_of(report, "layering/import-dag")
        assert {f.rel for f in hits} == {"harness/bad.py", "__init__.py"}


class TestUnusedImportRule:
    RULE = "hygiene/unused-import"

    def flagged(self, tmp_path, files: dict[str, str]) -> list[tuple[str, int]]:
        make_tree(tmp_path, files)
        return [(f.rel, f.line) for f in findings_of(check_paths([tmp_path]), self.RULE)]

    def test_unread_import_is_flagged_and_read_ones_are_not(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    from __future__ import annotations

                    import os.path
                    import json
                    from typing import TYPE_CHECKING, Any

                    if TYPE_CHECKING:
                        from repro.net.graph import Graph

                    def size(g: "Graph") -> int:
                        return len(os.path.join("a", "b"))
                    """,
            },
        )
        # os is read through os.path, Graph inside a string annotation
        assert hits == [("core/mod.py", 5), ("core/mod.py", 6)]

    def test_package_init_is_exempt(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/__init__.py": "from repro.core.mod import thing\n",
                "core/other.py": "from repro.core.mod import thing\n",
            },
        )
        assert hits == [("core/other.py", 1)]

    def test_names_in_dunder_all_are_exempt(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    from repro.types import NodeId, Vertex

                    __all__ = ["NodeId"]
                    """,
            },
        )
        assert hits == [("core/mod.py", 2)]

    def test_noqa_f401_line_is_exempt(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    from repro.types import (
                        NodeId,  # noqa: F401  (re-export)
                        Vertex,
                    )
                    """,
            },
        )
        assert hits == [("core/mod.py", 4)]


class TestLineTooLongRule:
    RULE = "hygiene/line-too-long"

    def flagged(self, tmp_path, source: str, pyproject: str | None) -> list[tuple[int, str]]:
        tree = {"src/pkg/core/mod.py": source}
        if pyproject is not None:
            tree["pyproject.toml"] = pyproject
        make_tree(tmp_path, tree)
        report = check_paths([tmp_path / "src" / "pkg"])
        return [(f.line, f.message) for f in findings_of(report, self.RULE)]

    def test_limit_is_ruffs_line_length(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            """
            x = "exactly twenty"
            y = "one over twenty"
            # a comment well past the limit
            """,
            "[tool.ruff]\nline-length = 20\n",
        )
        assert [line for line, _ in hits] == [3, 4]
        assert hits[0][1] == "line is 21 characters long, over the 20 of [tool.ruff] line-length"

    def test_ruffs_e501_exemptions(self, tmp_path):
        source = (
            "#\n"
            'url="https://example.org/long/path"\n'  # one unbroken word
            "# https://example.org/a/very/long/path\n"  # URL starts within the limit
            "# see the page at https://example.org/x\n"  # URL starts past the limit
            "# https://example.org/x is the page to see\n"  # URL not last
        )
        hits = self.flagged(tmp_path, source, "[tool.ruff]\nline-length = 12\n")
        assert [line for line, _ in hits] == [4, 5]

    def test_no_configured_length_checks_nothing(self, tmp_path):
        long_line = "x = " + "1 + " * 40 + "1\n"
        assert self.flagged(tmp_path, long_line, None) == []
        assert self.flagged(tmp_path, long_line, "[tool.ruff]\n") == []
        assert self.flagged(tmp_path, long_line, "[tool.ruff\n") == []  # does not parse


class TestUntypedDefRule:
    RULE = "typing/untyped-def"
    PYPROJECT = """
        [tool.mypy]
        mypy_path = "src"
        packages = ["pkg.core", "pkg.types"]
        """

    def flagged(self, tmp_path, files: dict[str, str], pyproject: bool = True) -> list:
        tree = {f"src/pkg/{rel}": source for rel, source in files.items()}
        if pyproject:
            tree["pyproject.toml"] = self.PYPROJECT
        make_tree(tmp_path, tree)
        report = check_paths([tmp_path / "src" / "pkg"])
        return [(f.rel, f.line, f.message) for f in findings_of(report, self.RULE)]

    def test_scope_is_the_mypy_package_list(self, tmp_path):
        untyped = "def f(x):\n    return x\n"
        hits = self.flagged(
            tmp_path,
            {"core/mod.py": untyped, "types.py": untyped, "harness/mod.py": untyped},
        )
        # a listed package and a listed module are gated; harness is not
        assert [(rel, line) for rel, line, _ in hits] == [("core/mod.py", 1), ("types.py", 1)]

    def test_no_pyproject_gates_nothing(self, tmp_path):
        assert self.flagged(tmp_path, {"core/mod.py": "def f(x):\n    pass\n"}, False) == []

    def test_unparsable_pyproject_gates_nothing_and_does_not_crash(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.mypy\n", encoding="utf-8")
        assert self.flagged(tmp_path, {"core/mod.py": "def f(x):\n    pass\n"}, False) == []

    def test_missing_return_is_flagged(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    def bad(x: int):
                        return x

                    async def good(x: int) -> int:
                        return x
                    """,
            },
        )
        assert hits == [("core/mod.py", 2, "`bad` lacks annotations for: return")]

    def test_every_parameter_but_a_leading_self_or_cls(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    class C:
                        def method(self, a: int) -> None:
                            pass

                        @classmethod
                        def build(cls) -> "C":
                            return cls()

                        def loose(self, a, *args: int, b, **kw) -> None:
                            pass
                    """,
            },
        )
        assert hits == [("core/mod.py", 10, "`loose` lacks annotations for: a, b, kw")]

    def test_nested_defs_are_checked(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    def outer() -> None:
                        def typed(x: int) -> int:
                            return x

                        def helper(x):
                            return x
                    """,
            },
        )
        assert [(line, message) for _, line, message in hits] == [
            (6, "`helper` lacks annotations for: x, return")
        ]

    def test_init_return_may_go_once_a_parameter_is_annotated(self, tmp_path):
        hits = self.flagged(
            tmp_path,
            {
                "core/mod.py": """
                    class A:
                        def __init__(self, x: int):
                            self.x = x

                    class B:
                        def __init__(self):
                            self.x = 0
                    """,
            },
        )
        assert hits == [("core/mod.py", 7, "`__init__` lacks annotations for: return")]


class TestSuppressions:
    BAD_CORE = """
        import random

        def pick(xs):
            return random.choice(xs){directive}
        """

    def test_suppression_with_reason_silences_and_is_recorded(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/mod.py": self.BAD_CORE.format(
                    directive="  # staticcheck: ignore[determinism/"
                    "module-random] -- fixture exercises the shared pool"
                ),
            },
        )
        report = check_paths([tmp_path])
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0]["reason"].startswith("fixture exercises")

    def test_family_prefix_and_next_line_form(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/mod.py": """
                    import random

                    def pick(xs):
                        # staticcheck: ignore[determinism] -- covers the family
                        return random.choice(xs)
                    """,
            },
        )
        assert check_paths([tmp_path]).ok

    def test_ignore_file_covers_the_whole_module(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/mod.py": """
                    # staticcheck: ignore-file[determinism/module-random] -- seeded fixture corpus
                    import random

                    def pick(xs):
                        return random.choice(xs)

                    def pick2(xs):
                        return random.shuffle(xs)
                    """,
            },
        )
        report = check_paths([tmp_path])
        assert report.ok and len(report.suppressed) == 2

    def test_reasonless_suppression_is_itself_a_finding(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/mod.py": self.BAD_CORE.format(
                    directive="  # staticcheck: ignore[determinism/module-random]"
                ),
            },
        )
        report = check_paths([tmp_path])
        rules = {f.rule for f in report.findings}
        # the directive is void: the original finding survives too
        assert rules == {
            "suppression/missing-reason",
            "determinism/module-random",
        }

    def test_unknown_rule_and_unused_directive_are_findings(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/mod.py": """
                    x = 1  # staticcheck: ignore[no/such-rule] -- typo'd id
                    y = 2  # staticcheck: ignore[determinism/wall-clock] -- nothing here
                    """,
            },
        )
        report = check_paths([tmp_path])
        rules = sorted(f.rule for f in report.findings)
        assert rules == [
            "suppression/unknown-rule",
            "suppression/unused",
            "suppression/unused",
        ]

    def test_directive_quoted_in_a_docstring_is_inert(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/mod.py": '''
                    """Suppress with ``# staticcheck: ignore[rule]`` plus a reason."""

                    x = 1
                    ''',
            },
        )
        assert check_paths([tmp_path]).ok


class TestReportAndCli:
    def test_json_report_schema(self, tmp_path):
        make_tree(tmp_path, {"core/bad.py": "import time\nt = time.time()\n"})
        report = check_paths([tmp_path])
        out = tmp_path / "report.json"
        write_json(report, out)
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert data["counts"] == {"determinism/wall-clock": 1}
        (finding,) = data["findings"]
        assert finding["rel"] == "core/bad.py" and finding["line"] == 2
        assert sorted(data["rules"]) == data["rules"]

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        make_tree(tmp_path, {"core/broken.py": "def f(:\n"})
        report = check_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["parse/syntax-error"]

    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "core/bad.py": "import time\nt = time.time()\n",
                "core/good.py": "x = 1\n",
            },
        )
        out = tmp_path / "findings.json"
        assert staticcheck_main([str(tmp_path), "--json", str(out)]) == 1
        assert json.loads(out.read_text())["ok"] is False
        assert "determinism/wall-clock" in capsys.readouterr().out

        (tmp_path / "core" / "bad.py").unlink()
        assert staticcheck_main([str(tmp_path)]) == 0
        assert "staticcheck: ok" in capsys.readouterr().out

    def test_cli_rule_filter_and_catalogue(self, tmp_path, capsys):
        make_tree(tmp_path, {"core/bad.py": "import time\nt = time.time()\n"})
        # filtered to an unrelated family, the violation is out of scope
        assert staticcheck_main([str(tmp_path), "--rules", "layering"]) == 0
        capsys.readouterr()
        assert staticcheck_main(["--list-rules"]) == 0
        catalogue = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.ids[0] in catalogue

    def test_rule_ids_are_unique(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids))


class TestRealTreeIsClean:
    """The meta-test: the shipped tree must satisfy its own gate.  This
    runs in tier-1, so a violation (or a reasonless suppression) fails
    the ordinary test suite even before the CI static-analysis job."""

    def test_src_repro_passes_staticcheck(self):
        root = Path(repro.__file__).resolve().parent
        report = check_paths([root])
        assert report.files_checked > 50
        assert report.ok, "\n" + report.render()

    def test_every_live_suppression_carries_a_reason(self):
        root = Path(repro.__file__).resolve().parent
        report = check_paths([root])
        assert all(s["reason"] for s in report.suppressed)

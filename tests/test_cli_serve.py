"""The ``serve``/``soak`` subcommands' crash-safety surface: checkpoint
flags, the ``--restore`` path, the guard rails around them, and the
graceful-interrupt path (a subprocess: signal delivery does not compose
with in-process pytest runs) -- one code path for one gateway and for
an N-shard cluster."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import _serve_parser, _soak_parser, main
from repro.persist import list_checkpoints


class TestParsers:
    def test_serve_accepts_checkpoint_flags(self, tmp_path):
        args = _serve_parser().parse_args(
            [
                "--checkpoint-dir", str(tmp_path),
                "--checkpoint-every", "8",
                "--checkpoint-keep", "2",
                "--restore",
            ]
        )
        assert args.checkpoint_dir == tmp_path
        assert args.checkpoint_every == 8
        assert args.checkpoint_keep == 2
        assert args.restore

    def test_serve_defaults_leave_checkpointing_off(self):
        args = _serve_parser().parse_args([])
        assert args.checkpoint_dir is None
        assert not args.restore

    def test_soak_accepts_checkpoint_flags(self, tmp_path):
        args = _soak_parser().parse_args(
            ["--checkpoint-dir", str(tmp_path), "--checkpoint-every", "4"]
        )
        assert args.checkpoint_dir == tmp_path
        assert args.checkpoint_every == 4
        assert args.checkpoint_keep == 3


class TestServe:
    SERVE = [
        "serve", "--n0", "24", "--rate", "400", "--duration", "0.4",
        "--max-batch", "8", "--report-every", "0", "--seed", "5",
    ]

    def test_restore_without_checkpoint_dir_is_an_error(self, capsys):
        assert main(["serve", "--restore", "--duration", "0.1"]) == 2
        assert "--restore requires --checkpoint-dir" in capsys.readouterr().err

    def test_serve_writes_checkpoints_then_restores(self, tmp_path, capsys):
        root = tmp_path / "ckpt"
        serve = self.SERVE + [
            "--checkpoint-dir", str(root), "--checkpoint-every", "1",
        ]
        assert main(serve) == 0
        first = capsys.readouterr().out
        assert "checkpoints:" in first
        assert list_checkpoints(root)

        assert main(serve + ["--restore"]) == 0
        second = capsys.readouterr().out
        assert "restored step" in second
        assert "checkpoints:" in second  # the restored run keeps checkpointing

    def test_no_final_checkpoint_is_a_failed_run(self, tmp_path, capsys):
        # A file where the checkpoint directory should go: every attempt
        # fails, so no ack since the start is durable.
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert main(self.SERVE + ["--checkpoint-dir", str(blocker)]) == 1
        out = capsys.readouterr().out
        assert "cluster audit | ok" in out
        assert "final NOT WRITTEN" in out

    def test_cluster_mode_accepts_overload_flags(self, capsys):
        # --policy / --queue-limit travel in the worker config: every
        # shard runs the same flush core as the single gateway, so
        # cluster mode serves under them to a clean audit.
        base = ["serve", "--shards", "2", "--duration", "0.1"]
        assert main(base + ["--policy", "shed-oldest"]) == 0
        assert "cluster audit | ok" in capsys.readouterr().out
        assert main(base + ["--queue-limit", "64"]) == 0
        assert "cluster audit | ok" in capsys.readouterr().out

    def test_restore_from_empty_directory_fails_loudly(self, tmp_path):
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            main(
                self.SERVE
                + ["--restore", "--checkpoint-dir", str(tmp_path / "nothing")]
            )


class TestInterruptAndRestore:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_sigint_drains_to_final_checkpoints_then_restores(
        self, tmp_path, capsys, shards
    ):
        root = tmp_path / "ckpt"
        serve = [
            "serve", "--n0", "48", "--rate", "300", "--max-batch", "8",
            "--seed", "5", "--shards", str(shards),
            "--checkpoint-dir", str(root), "--checkpoint-every", "2",
            "--checkpoint-keep", "2",
        ]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *serve]
            + ["--duration", "60", "--report-every", "0.2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # mid-load: the second progress row means acks are flowing
            seen: list[str] = []
            deadline = time.monotonic() + 60.0
            while sum(" acks (" in line for line in seen) < 2:
                assert time.monotonic() < deadline, seen
                line = proc.stdout.readline()
                assert line, (seen, proc.stderr.read())  # exited early
                seen.append(line)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
        out = "".join(seen) + out
        assert proc.returncode == 0, (out, err)
        assert "interrupt: draining" in out
        assert re.search(r"cluster audit +\| ok", out), out
        assert "Traceback" not in err, err
        dirs = [root / f"shard-{i}" for i in range(shards)] if shards > 1 else [root]
        for directory in dirs:
            checkpoints = list_checkpoints(directory)
            assert 1 <= len(checkpoints) <= 2, checkpoints  # --checkpoint-keep 2
            # the newest one is the drain's final covering checkpoint
            assert str(checkpoints[-1]) in out.split("final ", 1)[1]

        restore = serve + ["--duration", "0.3", "--report-every", "0", "--restore"]
        assert main(restore) == 0
        second = capsys.readouterr().out
        assert second.count("restored step") == shards
        assert "cluster audit | ok" in second
        for directory in dirs:
            assert 1 <= len(list_checkpoints(directory)) <= 2


class TestSoak:
    def test_soak_reports_checkpoints_per_size(self, tmp_path, capsys):
        assert (
            main(
                [
                    "soak",
                    "--sizes", "64",
                    "--duration", "0.3",
                    "--clients", "16",
                    "--max-batch", "8",
                    "--no-baseline",
                    "--checkpoint-dir", str(tmp_path),
                    "--checkpoint-every", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "checkpoints=" in out
        assert list_checkpoints(tmp_path / "n64")

"""The ``serve``/``soak`` subcommands' crash-safety surface: checkpoint
flags, the ``--restore`` path, and the guard rails around them.  The
graceful-interrupt path itself is exercised end to end by the fault
harness (signal delivery does not compose with in-process pytest runs)."""

from __future__ import annotations

import pytest

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

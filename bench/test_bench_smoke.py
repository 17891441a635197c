"""Smoke tests of the benchmark itself: every workload at toy size
through the same code path, the schedule generator's determinism, and
the shim tracer's promise to change nothing but time."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
from multiprocessing import resource_tracker

import pytest

import repro.core.multi
import repro.net.walks
from repro import DexNetwork
from repro.persist.snapshot import state_fingerprint

from bench import metrics, run
from bench.driver import run_rep
from bench.trace import BOUNDARIES, FOLD_AFTER, ShimTracer, self_time_by_name
from bench.workloads import BY_NAME, WORKLOADS, make_schedule

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_file_names_units_and_bounds():
    contract = run.CONTRACT
    assert [w["name"] for w in contract["workloads"]] == [w.name for w in WORKLOADS]
    assert contract["paths"] == ["bench"]
    assert contract["run_seconds"] == run.NOMINAL_SECONDS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]  # fmt: skip
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert run.END_TO_END["setup_s"]["bound"] == max(
        m["bound"] for m in contract["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_schedule_is_a_function_of_the_seed(workload):
    for phase in ("warmup", "measure"):
        first = make_schedule(workload, 11, phase).to_bytes()
        assert first == make_schedule(workload, 11, phase).to_bytes()
        assert first != make_schedule(workload, 12, phase).to_bytes()
        assert first != make_schedule(workload, 11, phase, rep=1).to_bytes()
    schedule = make_schedule(workload, 11)
    assert len(schedule) == len(schedule.picks) == workload.ops
    assert len(schedule.due_s) == (workload.ops if workload.rate_hz else 0)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_toy_run_reports_every_metric(workload):
    toy = workload.toy()
    assert toy.n0 <= 128 and toy.ops <= 512
    untraced, traced = run.run_untraced(toy, 5), run.run_traced(toy, 5, None)
    for row, spec in ((untraced, run.END_TO_END), (traced, run.PER_LAYER)):
        assert row["valid"], row["errors"]
        assert row["failed"] == 0
        assert list(row["metrics"]) == list(spec)
        for name, metric in row["metrics"].items():
            assert metric["unit"] == spec[name]["unit"]
            assert isinstance(metric["value"], (int, float)), name
            assert metric["samples"] >= 1
        line = json.loads(run.contract_line(row))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["attempted"] >= toy.ops
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    # the contrasts the workloads were built for hold even at toy size
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    assert layer["trace.reconcile_error_share"] < 1e-6
    assert layer["trace.unresolved_boundaries"] == 0
    service = [v for name, v in layer.items() if name.startswith("service.gateway.")]
    if toy.mode == "engine":
        assert not any(service)
        assert layer["core.step_insert_p50_us"] > 0
        assert layer["net.walks.scalar_walks_per_event"] > 0
    elif toy.mode == "cluster":
        assert not any(service)
        assert layer["service.router.cpu_ms_per_event"] > 0
        assert layer["service.shard.cpu_ms_per_event"] > 0
    else:
        assert layer["service.gateway.flushes"] > 0
        assert layer["net.metrics.messages_per_event"] > 0
        if toy.join_share == (1.0,):  # no leaves: delete validation idle
            assert layer["core.delete_ms_per_event"] == 0
            assert layer["net.topology.connectivity_ms_per_flush"] == 0
        if toy.join_share == (0.0,):
            assert layer["core.insert_ms_per_event"] == 0
        if toy.mode == "open":
            assert layer["client.gen_lag_p99_ms"] > 0


def test_shims_change_nothing_but_time_and_are_restored():
    toy = BY_NAME["soak_mixed_4k"].toy()
    originals = (DexNetwork.insert_batch_partial, repro.net.walks.run_wave)
    plain = run_rep(toy, 7)
    with ShimTracer() as tracer:
        assert DexNetwork.insert_batch_partial is not originals[0]
        assert repro.core.multi.run_wave is repro.net.walks.run_wave is not originals[1]
        traced = run_rep(toy, 7, tracer=tracer)
    assert (DexNetwork.insert_batch_partial, repro.net.walks.run_wave) == originals
    assert repro.core.multi.run_wave is originals[1]
    assert not tracer.unresolved and traced.spans
    assert state_fingerprint(traced.net) == state_fingerprint(plain.net)


def test_cluster_run_leaves_no_process_behind():
    run_rep(BY_NAME["cluster2_soak_4k"].toy(), 3)
    assert not multiprocessing.active_children()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None  # the spawned workers started it
    run.stop_resource_tracker()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):  # stopped *and* reaped
        os.waitpid(pid, 0)
    run.stop_resource_tracker()  # nothing running: a no-op


def test_unresolvable_boundary_degrades_to_null(monkeypatch):
    # core.multi keeps its own alias, so the program still runs
    monkeypatch.delattr(repro.net.walks, "run_wave")
    toy = BY_NAME["soak_mixed_4k"].toy()
    with ShimTracer() as tracer:
        rep = run_rep(toy, 7, tracer=tracer)
    assert tracer.unresolved == ["repro.net.walks.run_wave"]
    assert not rep.gate_errors
    values = metrics.per_layer(rep, tracer, rep.phase.wall_s)
    assert values["net.walks.wave_ms_per_event"] is None
    assert values["net.walks.wave_calls"] is None
    assert values["trace.unresolved_boundaries"] == 1
    assert values["core.validate_ms_per_event"] is not None
    assert len(tracer.boundaries) == len(BOUNDARIES)


class _Fanout:
    """A parent boundary with more leaf calls than ``FOLD_AFTER``."""

    def parent(self, leaves: int) -> None:
        for _ in range(leaves):
            self.leaf()

    def leaf(self) -> None:
        pass


def test_leaf_spans_fold_under_one_parent():
    leaves = FOLD_AFTER + 36
    names = [f"{__name__}._Fanout.parent", f"{__name__}._Fanout.leaf"]
    with ShimTracer(names) as tracer:
        _Fanout().parent(leaves)
    assert not tracer.unresolved
    parent = tracer.spans[-1]
    children = tracer.spans[:-1]
    assert parent.parent is None and all(s.parent is parent for s in children)
    assert len(children) == FOLD_AFTER + 1
    assert [s.count for s in children] == [1] * FOLD_AFTER + [36]
    assert self_time_by_name(tracer.spans)[children[0].name][0] == leaves
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(parent.total)
    assert _Fanout.leaf.__name__ == "leaf" and not hasattr(_Fanout.leaf, "__wrapped__")

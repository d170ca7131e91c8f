"""Tests for the outside-in tracer and the benchmark's reporting.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import tracer
from dfnas import blob, data, experiment, federation, local_search, supernet, tensor
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MODULES = (tensor, supernet, blob, local_search, federation, data, experiment)
CLASSES = (
    tensor.Tape, tensor.SGD, blob.ParameterBlob, data.Dataset,
    *supernet.CandidateOp.__subclasses__(),
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def snapshot() -> dict:
    return {
        (owner.__name__, attr): value
        for owner in MODULES + CLASSES
        for attr, value in vars(owner).items()
    }


def changed(before: dict) -> list:
    after = snapshot()
    return [key for key, value in before.items() if after.get(key) is not value]


def tiny_search(workers: int = 2):
    cfg = replace(WORKLOADS["grouped-parallel"].config(3, tiny=True), federation_workers=workers)
    train, test = experiment.build_datasets(cfg)
    partition = experiment.build_partition(cfg, train)
    result = federation.run_federated_search(
        train, test, partition, experiment.space_config(cfg),
        experiment.federation_config(cfg), experiment.local_config(cfg),
    )
    return cfg, result


def test_every_wrapped_attribute_is_restored():
    before = snapshot()
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        wrapped = set(changed(before))
        _, traced = tiny_search()
    for key in [
        ("dfnas.tensor", "conv2d"), ("dfnas.tensor", "matmul"),
        ("dfnas.tensor", "softmax_cross_entropy"), ("Tape", "backward"), ("Tape", "record"),
        ("SGD", "step"), ("ParameterBlob", "to_bytes"), ("ParameterBlob", "from_bytes"),
        ("dfnas.federation", "unflatten_params"), ("dfnas.federation", "ThreadPoolExecutor"),
        ("dfnas.federation", "run_round"), ("dfnas.local_search", "build_supernet"),
        ("dfnas.local_search", "global_grad_norm"), ("dfnas.experiment", "client_local_search"),
        ("dfnas.data", "iid_split"), ("Conv", "forward"),
    ]:
        assert key in wrapped, key
    assert changed(before) == []
    assert recorder.spans
    _, plain = tiny_search()
    assert [r.test_acc for r in plain.history] == [r.test_acc for r in traced.history]


def test_attributes_are_restored_when_the_run_fails():
    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracer.traced(tracer.Recorder()):
            assert changed(before)
            tensor.relu(tensor.Tensor([1.0]))
            1 / 0
    assert changed(before) == []


def test_failing_call_is_recorded_and_restored():
    before = snapshot()
    recorder = tracer.Recorder()
    with pytest.raises(Exception):
        with tracer.traced(recorder):
            tensor.matmul(tensor.Tensor([[1.0, 2.0]]), tensor.Tensor([[1.0, 2.0]]))
    assert changed(before) == []
    assert [(s.name, s.error) for s in recorder.spans] == [("tensor.matmul", "DimensionError")]


def make_span(name, start, end, parent=None, thread=1):
    return tracer.Span(name, start, parent, thread, None, end=end)


def test_self_time_is_duration_minus_children_on_a_synthetic_tree():
    root = make_span("root", 0.0, 10.0)
    a = make_span("a", 1.0, 4.0, root)
    b = make_span("b", 3.0, 6.0, root, thread=2)  # overlaps a on another thread
    c = make_span("c", 8.0, 12.0, root)  # runs past its parent: clipped
    grandchild = make_span("g", 2.0, 3.0, a)
    leaf = make_span("leaf", 20.0, 21.5)
    selfs = tracer.self_times([root, a, b, c, grandchild, leaf])
    assert selfs[id(root)] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert selfs[id(a)] == pytest.approx(3.0 - 1.0)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(c)] == pytest.approx(4.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)
    assert selfs[id(leaf)] == pytest.approx(1.5)


def test_two_threads_produce_correctly_parented_spans():
    recorder = tracer.Recorder()
    pool_class = tracer._traced_pool(recorder)
    both_running = threading.Barrier(2, timeout=10)

    def task(i):
        with recorder.span(f"task{i}") as span:
            both_running.wait()  # forces the two tasks onto two live threads
            with recorder.span(f"inner{i}"):
                pass
        return span

    with recorder.span("round", round_id=7) as round_span:
        with pool_class(max_workers=2) as pool:
            futures = [pool.submit(task, i) for i in range(2)]
            tasks = [f.result(timeout=10) for f in futures]
    phase = next(s for s in recorder.spans if s.name == "federation.clients")
    assert phase.parent is round_span
    assert {t.thread for t in tasks} != {round_span.thread}
    assert len({t.thread for t in tasks}) == 2
    for i, t in enumerate(tasks):
        assert t.parent is phase and t.round == 7
        inner = next(s for s in recorder.spans if s.name == f"inner{i}")
        assert inner.parent is t and inner.thread == t.thread and inner.round == 7
    assert recorder.current() is None


def test_federation_phases_add_up_to_the_round_wall_with_two_workers():
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        cfg, result = tiny_search(workers=2)
    layer = tracer.layer_metrics(recorder, cfg.federation_workers,
                                 cfg.federation_clients_per_round)
    m = layer["metrics"]
    assert layer["extra"]["federation.unclassified_s"] == {}
    phases = sum(m[f"federation.{p}_s"] for p in set(tracer.FEDERATION_PHASES.values()))
    assert phases + m["federation.round.self_s"] == pytest.approx(m["federation.round_s"])
    assert m["federation.client_attempts"] == cfg.federation_clients_per_round * len(result.history)
    for s in recorder.spans:
        if s.name == "federation.client":
            owner = tracer._ancestor(s, "federation.round")
            assert owner is not None and owner.round == s.round
    assert 0.0 < m["federation.client_busy_ratio"] <= 1.0 + 1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tracer.tail_stat(range(100)) == (89, "p90 of 100")
    assert tracer.tail_stat(range(15)) == (14, "max of 15")


def test_repeated_round_times_are_reduced_per_round():
    import harness

    # one slow moment in one repeat does not reach the per-round series
    assert harness.per_index_median([[1.0, 9.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]]) \
        == [1.0, 2.0, 3.0]


def test_benchmark_json_matches_the_runner():
    import harness
    import run

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{workload}  {metric['name']} = ")
                   and f" {metric['unit']}  (" in line for line in lines[:-1])

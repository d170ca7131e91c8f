"""Measurement, correctness checks and reporting behind `bench/run.py`.

Imported only after `run.py` has pinned the BLAS thread count and put `src/`
on the path.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from dfnas import experiment, federation, supernet
from dfnas.errors import NumericalError
from dfnas.supernet import flatten_params
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 25  # per window: before the first search and after each one

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": ("s", "lower"),
    "search_s": ("s", "lower"),
    "round_s.p50": ("s", "lower"),
    "round_s.tail": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "bytes_per_round": ("B", "lower"),
    "final_test_acc": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    failures: list = field(default_factory=list)  # failed correctness checks
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def put(self, name: str, value, unit: str, samples: str) -> None:
        self.metrics[name] = (value, unit, samples)


def median(values) -> float:
    return float(statistics.median(values))


def timed_setups(make) -> tuple[list, object]:
    """Time SETUP_REPEATS calls of `make`; returns the times and the last result."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        made = make()
        times.append(time.perf_counter() - started)
    return times, made


def per_index_median(series) -> list:
    """The median of each round (or path) over repeated runs of identical
    work, so that a slow moment of the host in one repeat does not become
    the run's tail."""
    return [median(xs) for xs in zip(*series)]


# ---------------------------------------------------------------------------
# federated workloads


@dataclass
class Search:
    seconds: float
    round_s: list
    blobs: list  # global blob after each round, as the round callback saw it
    result: object = None
    error: Exception | None = None


def setup_federated(cfg):
    train, test = experiment.build_datasets(cfg)
    partition = experiment.build_partition(cfg, train)
    space = experiment.space_config(cfg)
    net = supernet.build_supernet(space)
    return train, test, partition, space, net


def search_once(cfg, train, test, partition, space) -> Search:
    stamps, blobs = [], []

    def on_round(record, blob):
        stamps.append(time.perf_counter())
        blobs.append(blob)

    started = time.perf_counter()
    result, error = None, None
    try:
        result = federation.run_federated_search(
            train, test, partition, space, experiment.federation_config(cfg),
            experiment.local_config(cfg), round_callback=on_round,
        )
    except (federation.ClientFailure, NumericalError) as err:
        error = err
    seconds = time.perf_counter() - started
    marks = [started] + stamps
    return Search(seconds, [b - a for a, b in zip(marks, marks[1:])], blobs, result, error)


def history_key(history) -> list:
    return [
        (r.round_index, tuple(r.client_ids), tuple(r.client_sizes), r.test_acc, r.test_loss,
         r.bytes_up, r.bytes_down, r.work_units)
        for r in history
    ]


def check_search(out: Outcome, cfg, search: Search, initial_blob, floor: float) -> None:
    k = cfg.federation_clients_per_round
    out.attempted += k * len(search.round_s)
    if search.error is not None:
        out.attempted += k  # the round that failed dispatched its clients
        out.failed += 1
        out.check(False, f"search failed: {type(search.error).__name__}: {search.error}")
        return
    history = search.result.history
    out.check(len(history) == cfg.federation_rounds,
              f"{len(history)} rounds, configured {cfg.federation_rounds}")
    out.check(len(search.round_s) == cfg.federation_rounds,
              f"{len(search.round_s)} round callbacks, configured {cfg.federation_rounds}")
    payload = initial_blob
    for rec, blob in zip(history, search.blobs):
        out.check(len(rec.client_ids) == k and len(set(rec.client_ids)) == k,
                  f"round {rec.round_index}: selected {rec.client_ids}, expected {k} clients")
        out.check(rec.bytes_down == k * payload.nbytes(),
                  f"round {rec.round_index}: bytes_down {rec.bytes_down} != "
                  f"{k} x payload {payload.nbytes()}")
        # every client blob has the aggregate's layout (aggregation enforces it)
        out.check(rec.bytes_up == k * blob.nbytes(),
                  f"round {rec.round_index}: bytes_up {rec.bytes_up} != "
                  f"{k} x client blob {blob.nbytes()}")
        out.check(0.0 <= rec.test_acc <= 1.0, f"round {rec.round_index}: accuracy out of range")
        payload = blob
    out.check(history[-1].test_acc >= floor,
              f"final_test_acc {history[-1].test_acc:.4f} below floor {floor}")


def run_federated(wl, cfg, repeats: int, tiny: bool) -> Outcome:
    out = Outcome()
    # a set-up window after each search spreads setup_s's samples over the run
    setup, (train, test, partition, space, net) = timed_setups(lambda: setup_federated(cfg))
    initial = flatten_params(net, include_alpha=cfg.mode == "dfnas")

    searches = []
    for _ in range(repeats):
        searches.append(search_once(cfg, train, test, partition, space))
        setup += timed_setups(lambda: setup_federated(cfg))[0]
    for s in searches:
        check_search(out, cfg, s, initial, wl.floor(tiny))
    done = [s for s in searches if s.error is None]
    first = history_key(done[0].result.history) if done else None
    out.check(all(history_key(s.result.history) == first for s in done),
              "repeated searches of one seed produced different histories")

    out.put("setup_s", median(setup), "s",
            f"median of {len(setup)} set-ups in {repeats + 1} windows")
    if not done:
        return out
    rounds = per_index_median([s.round_s for s in done])
    tail, label = tracer.tail_stat(rounds)
    each = f"rounds, each the median of {len(done)} searches"
    history = done[0].result.history
    samples = sum(sum(rec.client_sizes) * cfg.local_epochs for rec in history)
    out.put("search_s", median([s.seconds for s in done]), "s",
            f"median of {len(done)} searches x {cfg.federation_rounds} rounds")
    out.put("round_s.p50", median(rounds), "s", f"{len(rounds)} {each}")
    out.put("round_s.tail", tail, "s", f"{label} {each}")
    out.put("samples_per_s", median([samples / s.seconds for s in done]), "1/s",
            f"median of {len(done)} searches x {samples} client samples")
    out.put("bytes_per_round",
            sum(r.bytes_up + r.bytes_down for r in history) / len(history), "B",
            f"exact, {len(history)} rounds")
    out.put("final_test_acc", history[-1].test_acc, "ratio",
            f"{cfg.data_test_samples} test samples")
    out.notes["child"] = list(done[0].result.child.kinds)
    return out


def trace_federated(wl, cfg, tiny: bool) -> Outcome:
    """One untraced search, then set-up and search again under the tracer."""
    out = Outcome()
    train, test, partition, space, net = setup_federated(cfg)
    initial = flatten_params(net, include_alpha=cfg.mode == "dfnas")
    plain = search_once(cfg, train, test, partition, space)
    check_search(out, cfg, plain, initial, wl.floor(tiny))

    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        train, test, partition, space, _ = setup_federated(cfg)
        traced = search_once(cfg, train, test, partition, space)
    check_search(out, cfg, traced, initial, wl.floor(tiny))
    if plain.error is not None or traced.error is not None:
        return out
    out.check(history_key(plain.result.history) == history_key(traced.result.history),
              "traced and untraced runs of one seed differ")

    layer = tracer.layer_metrics(
        recorder, cfg.federation_workers, cfg.federation_clients_per_round)
    m = layer["metrics"]
    m["trace.search_s"] = traced.seconds
    m["trace.overhead_s"] = traced.seconds - plain.seconds
    check_federated_trace(out, cfg, recorder, layer, traced.result.history, len(test))
    finish_trace(out, wl, cfg, recorder, layer)
    return out


def check_federated_trace(out: Outcome, cfg, recorder, layer, history, n_test: int) -> None:
    m = layer["metrics"]
    phases = sum(m[f"federation.{p}_s"] for p in set(tracer.FEDERATION_PHASES.values()))
    out.check(not layer["extra"]["federation.unclassified_s"],
              f"round time outside the phases: {layer['extra']['federation.unclassified_s']}")
    out.check(abs(phases + m["federation.round.self_s"] - m["federation.round_s"])
              <= 1e-6 * max(1.0, m["federation.round_s"]),
              "federation phases plus round self time do not add up to the round wall")
    k = cfg.federation_clients_per_round
    out.check(m["federation.client_attempts"] == k * len(history),
              f"{m['federation.client_attempts']} client spans for {len(history)} rounds")
    executions = sum(rec.work_units - n_test for rec in history)
    traced = sum(v for name, v in m.items()
                 if name.startswith("supernet.candidate.") and name.endswith(".executions"))
    out.check(traced == executions,
              f"traced candidate executions {traced} != reported {executions}")
    out.check(m["local_search.batches"] == layer["extra"]["local_search.reported_batches"],
              "traced local steps differ from the batches clients reported")
    up: dict[int, int] = {}
    down: dict[int, int] = {}
    for s in recorder.spans:
        if s.name == "blob.to_bytes" and s.round is not None:
            if s.parent.name == "federation.client":
                up[s.round] = up.get(s.round, 0) + s.value
            elif s.parent.name == "federation.round":
                down[s.round] = down.get(s.round, 0) + s.value * k
    for rec in history:
        out.check(up.get(rec.round_index) == rec.bytes_up,
                  f"round {rec.round_index}: traced uplink {up.get(rec.round_index)} "
                  f"!= bytes_up {rec.bytes_up}")
        out.check(down.get(rec.round_index) == rec.bytes_down,
                  f"round {rec.round_index}: traced downlink {down.get(rec.round_index)} "
                  f"!= bytes_down {rec.bytes_down}")


def finish_trace(out: Outcome, wl, cfg, recorder, layer) -> None:
    m = layer["metrics"]
    if "unlisted_ops" in layer["extra"]:
        out.notes["unlisted_ops"] = layer["extra"]["unlisted_ops"]
    for name, unit in tracer.LAYER_METRICS.items():
        samples = layer["extra"]["samples"].get(name, "total over the traced run")
        out.put(name, m[name], unit, samples)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{cfg.master_seed}.jsonl"
    recorder.write_jsonl(path)
    out.notes["spans_file"] = str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# the ranking workload


@dataclass
class Ranking:
    seconds: float
    path_s: list
    ranks: list | None = None
    error: Exception | None = None


def rank_once(cfg, train, test, epochs: int) -> Ranking:
    """The ranking has no per-path callback; a clock read on each of its
    `build_supernet` calls (one per path, first thing in the loop) marks the
    path boundaries."""
    build = experiment.build_supernet
    marks = []

    def marked_build(space):
        marks.append(time.perf_counter())
        return build(space)

    experiment.build_supernet = marked_build
    started = time.perf_counter()
    ranks, error = None, None
    try:
        ranks = experiment.rank_fixed_paths(cfg, train, test, epochs=epochs, cache_path=None)
    except NumericalError as err:
        error = err
    finally:
        experiment.build_supernet = build
    ended = time.perf_counter()
    bounds = marks + [ended]
    return Ranking(ended - started, [b - a for a, b in zip(bounds, bounds[1:])], ranks, error)


def check_ranking(out: Outcome, cfg, ranking: Ranking, floor: float) -> None:
    expected = set(itertools.product(range(len(cfg.space_candidates)), repeat=cfg.space_blocks))
    out.attempted += len(expected)
    if ranking.error is not None:
        out.failed += 1
        out.check(False, f"ranking failed: {type(ranking.error).__name__}: {ranking.error}")
        return
    ranks = ranking.ranks
    out.check({r.path for r in ranks} == expected and len(ranks) == len(expected),
              f"ranked {len(ranks)} paths, expected all {len(expected)}")
    out.check(len(ranking.path_s) == len(expected),
              f"{len(ranking.path_s)} path timings for {len(expected)} paths")
    out.check(ranks == sorted(ranks, key=lambda r: (-r.test_acc, r.final_loss, r.path)),
              "ranking is not sorted best first")
    out.check(all(0.0 <= r.test_acc <= 1.0 for r in ranks), "path accuracy out of range")
    out.check(ranks[0].test_acc >= floor,
              f"best path accuracy {ranks[0].test_acc:.4f} below floor {floor}")


def path_blob_bytes(cfg, paths) -> float:
    """Mean weights-only blob size of a path, down plus up."""
    sizes = [
        flatten_params(supernet.build_supernet(experiment.space_config(cfg, fixed_path=p)),
                       include_alpha=False).nbytes()
        for p in paths
    ]
    return 2 * sum(sizes) / len(sizes)


def run_ranking(wl, cfg, repeats: int, tiny: bool) -> Outcome:
    out = Outcome()
    setup, (train, test) = timed_setups(lambda: experiment.build_datasets(cfg))
    runs = []
    for _ in range(repeats):
        runs.append(rank_once(cfg, train, test, wl.rank_epochs))
        setup += timed_setups(lambda: experiment.build_datasets(cfg))[0]
    for r in runs:
        check_ranking(out, cfg, r, wl.floor(tiny))
    done = [r for r in runs if r.error is None]
    out.check(all(r.ranks == done[0].ranks for r in done),
              "repeated rankings of one seed differ")
    out.put("setup_s", median(setup), "s",
            f"median of {len(setup)} set-ups in {repeats + 1} windows")
    if not done:
        return out
    paths = per_index_median([r.path_s for r in done])
    tail, label = tracer.tail_stat(paths)
    each = f"paths, each the median of {len(done)} rankings"
    ranks = done[0].ranks
    samples = len(train) * wl.rank_epochs * len(ranks)
    # one ranked path is this workload's round, so round_s.* are its path_s.*
    out.put("search_s", median([r.seconds for r in done]), "s",
            f"median of {len(done)} rankings x {len(ranks)} paths")
    out.put("round_s.p50", median(paths), "s", f"path_s.p50, {len(paths)} {each}")
    out.put("round_s.tail", tail, "s", f"path_s.tail, {label} {each}")
    out.put("samples_per_s", median([samples / r.seconds for r in done]), "1/s",
            f"median of {len(done)} rankings x {samples} training samples")
    out.put("bytes_per_round", path_blob_bytes(cfg, [r.path for r in ranks]), "B",
            f"exact, weights-only blob per path, {len(ranks)} paths")
    out.put("final_test_acc", ranks[0].test_acc, "ratio",
            f"best path {ranks[0].path} of {len(ranks)}; worst {ranks[-1].test_acc:.4f}")
    return out


def trace_ranking(wl, cfg, tiny: bool) -> Outcome:
    """One untraced ranking, then set-up and ranking again under the tracer."""
    out = Outcome()
    train, test = experiment.build_datasets(cfg)
    plain = rank_once(cfg, train, test, wl.rank_epochs)
    check_ranking(out, cfg, plain, wl.floor(tiny))
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        train, test = experiment.build_datasets(cfg)
        traced = rank_once(cfg, train, test, wl.rank_epochs)
    check_ranking(out, cfg, traced, wl.floor(tiny))
    if plain.error is not None or traced.error is not None:
        return out
    out.check(plain.ranks == traced.ranks, "traced and untraced rankings of one seed differ")
    layer = tracer.layer_metrics(recorder)
    m = layer["metrics"]
    m["trace.search_s"] = traced.seconds
    m["trace.overhead_s"] = traced.seconds - plain.seconds
    out.check(m["supernet.build_supernet.calls"] == 2 * len(traced.ranks),
              "expected one ranking build and one client build per path")
    finish_trace(out, wl, cfg, recorder, layer)
    return out


# ---------------------------------------------------------------------------
# entry points


def environment(cfg, loadavg_start: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy builds differ in what they report
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "federation.workers": cfg.federation_workers,
        "loadavg_start": loadavg_start,
    }


def run_one(args) -> int:
    loadavg = os.getloadavg()[0]
    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed, tiny=args.tiny)
    repeats = max(1, int(args.seconds // wl.nominal_s))
    if args.trace:
        out = (trace_federated if wl.kind == "federated" else trace_ranking)(wl, cfg, args.tiny)
    else:
        out = (run_federated if wl.kind == "federated" else run_ranking)(
            wl, cfg, repeats, args.tiny)
        out.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB", "this process")
        missing = [name for name in END_TO_END if name not in out.metrics]
        out.check(not missing, f"metrics not measured: {missing}")
        ratio = out.failed / out.attempted if out.attempted else 0.0
        print(f"{wl.name}  ops_failed_ratio = {ratio!r} ratio  "
              f"({out.failed} of {out.attempted} client tasks or paths)")

    env = environment(cfg, loadavg)
    for name, (value, unit, samples) in out.metrics.items():
        print(f"{wl.name}  {name} = {value!r} {unit}  ({samples})")
    for failure in out.failures:
        print(f"{wl.name}  CHECK FAILED: {failure}")
    print("env: " + json.dumps(env))
    correct = not out.failures
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "env": env, "correct": correct, "failures": out.failures, "notes": out.notes,
        "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in out.metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    names = tracer.LAYER_METRICS if args.trace else {n: u for n, (u, _) in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {n: {"value": out.metrics[n][0], "unit": u}
                    for n, u in names.items() if n in out.metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            print(f"{name}: no result (exit code {proc.returncode})")
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(args) -> int:
    if args.workload == "all":
        return run_all(args)
    return run_one(args)

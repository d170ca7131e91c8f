"""Outside-in span tracer for the dfnas package.

`traced(recorder)` replaces the public functions of `dfnas.tensor`,
`dfnas.supernet`, `dfnas.blob`, `dfnas.local_search`, `dfnas.federation`,
`dfnas.data` and `dfnas.experiment` (and every dfnas module that imported them
by name) with wrappers that record one span per call, and puts every original
back when the block exits, also on error. Nothing under `src/` changes.

A span records its name, start, end, parent span, thread and round id. Each
thread keeps its own stack of open spans; the client thread pool of
`dfnas.federation` is swapped for one that hands the submitting thread's
current span to the worker, so client spans stay parented to their round when
`federation.workers > 1`. Spans are kept in memory; `layer_metrics` turns them
into the per-layer metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False, slots=True)
class Span:
    name: str
    start: float
    parent: "Span | None"
    thread: int
    round: int | None
    end: float = 0.0
    error: str | None = None
    value: int = 0  # bytes moved, batches run: whatever the layer counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fresh_nets: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.builds = 0
        self.wasted_builds = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, round_id: int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if round_id is None and parent is not None:
            round_id = parent.round
        span = Span(name, time.perf_counter(), parent, threading.get_ident(), round_id)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str, round_id: int | None = None):
        s = self.open(name, round_id)
        try:
            yield s
        except BaseException as err:
            s.error = type(err).__name__
            raise
        finally:
            self.close(s)

    @contextmanager
    def adopt(self, parent: Span | None):
        """Run a block on this thread as if `parent` were its open span."""
        stack = self._stack()
        depth = len(stack)
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            del stack[depth:]

    # -- supernet builds whose initial weights are overwritten before use

    def note_build(self, net) -> None:
        with self._lock:
            self.builds += 1
            self._fresh_nets[net] = True

    def note_use(self, net) -> None:
        with self._lock:
            self._fresh_nets.pop(net, None)

    def note_overwrite(self, net) -> None:
        with self._lock:
            if self._fresh_nets.pop(net, None):
                self.wasted_builds += 1

    def write_jsonl(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "thread": s.thread,
                    "round": s.round, "error": s.error, "value": s.value,
                }) + "\n")


# ---------------------------------------------------------------------------
# patching


class Patcher:
    """Attribute replacements that can all be put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _modules():
    from dfnas import blob, data, experiment, federation, local_search, supernet, tensor

    return {
        "tensor": tensor, "supernet": supernet, "blob": blob, "local_search": local_search,
        "federation": federation, "data": data, "experiment": experiment,
    }


def _timed(recorder: Recorder, fn, name, after=None):
    """Wrap `fn` in a span. `name` is a string or a function of the call's
    arguments; `after(span, result, args)` may annotate the finished span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            recorder.close(span)
        if after is not None:
            after(span, result, args)
        return result

    return wrapper


def _patch_function(patcher: Patcher, modules, home, attr: str, wrapper_of) -> None:
    """Replace function `attr` of module `home` in every dfnas module that
    holds it, so `from .x import f` call sites are traced as well."""
    original = getattr(home, attr)
    wrapped = wrapper_of(original)
    for module in modules.values():
        if vars(module).get(attr) is original:
            patcher.set(module, attr, wrapped)


def _conv_name(args, kwargs) -> str:
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    groups = kwargs.get("groups", args[4] if len(args) > 4 else 1)
    return f"tensor.conv2d.k{kernel.data.shape[2]}g{groups}"


TENSOR_PRIMITIVES = (
    "matmul", "add", "mul", "scale", "relu", "bias_add", "conv2d", "channel_shuffle",
    "flatten_batch", "sum_all", "softmax_cross_entropy",
)


def install(recorder: Recorder, patcher: Patcher) -> None:
    mods = _modules()
    tensor, supernet, blob = mods["tensor"], mods["supernet"], mods["blob"]
    federation, data, experiment = mods["federation"], mods["data"], mods["experiment"]
    local_search = mods["local_search"]

    def patch(home, attr, name, after=None):
        _patch_function(patcher, mods, home, attr,
                        lambda fn: _timed(recorder, fn, name, after))

    # tensor: primitives forward, the backward rule each records, tape, optimizer
    for op in TENSOR_PRIMITIVES:
        patch(tensor, op, _conv_name if op == "conv2d" else f"tensor.{op}")
    patch(tensor, "global_grad_norm", "tensor.global_grad_norm")

    tape_record = vars(tensor.Tape)["record"]

    def record(self, inputs, output, backward):
        current = recorder.current()
        name = (current.name if current is not None else "tensor.unknown") + ".bwd"

        def timed_backward(g, needs):
            with recorder.span(name):
                return backward(g, needs)

        return tape_record(self, inputs, output, timed_backward)

    patcher.set(tensor.Tape, "record", record)
    patcher.set(tensor.Tape, "backward",
                _timed(recorder, vars(tensor.Tape)["backward"], "tensor.tape_backward"))
    patcher.set(tensor.SGD, "step", _timed(recorder, vars(tensor.SGD)["step"], "tensor.sgd_step"))

    # supernet
    def built(span, net, args):
        recorder.note_build(net)

    def used(span, result, args):
        recorder.note_use(args[0])

    def overwritten(span, result, args):
        recorder.note_overwrite(args[0])

    patch(supernet, "build_supernet", "supernet.build_supernet", built)
    patch(supernet, "sample_path", "supernet.sample_path")
    patch(supernet, "forward_path", "supernet.forward_path", used)
    patch(supernet, "forward_logits", "supernet.forward_logits", used)
    patch(supernet, "alpha_gradient", "supernet.alpha_gradient")
    patch(supernet, "prune_edges", "supernet.prune_edges")
    patch(supernet, "flatten_params", "supernet.flatten_params", used)
    patch(supernet, "unflatten_params", "supernet.unflatten_params", overwritten)
    for cls in supernet.CandidateOp.__subclasses__():
        if "forward" in vars(cls):
            patcher.set(cls, "forward", _timed(
                recorder, vars(cls)["forward"],
                lambda args, kwargs: f"supernet.candidate.{args[0].kind}",
            ))

    # blob: the wire format, counted in bytes
    def encoded(span, raw, args):
        span.value = len(raw)

    to_bytes = vars(blob.ParameterBlob)["to_bytes"]
    patcher.set(blob.ParameterBlob, "to_bytes",
                _timed(recorder, to_bytes, "blob.to_bytes", encoded))
    from_bytes = vars(blob.ParameterBlob)["from_bytes"].__func__
    patcher.set(blob.ParameterBlob, "from_bytes", classmethod(_timed(
        recorder, from_bytes, "blob.from_bytes",
        lambda span, result, args: setattr(span, "value", len(args[1])),
    )))

    # local_search
    def client_done(span, report, args):
        span.value = report.batches

    patch(local_search, "client_local_search", "local_search.client", client_done)

    # federation: rounds, per-client tasks, and the client thread pool
    run_round = federation.run_round

    def traced_round(state, round_index):
        with recorder.span("federation.round", round_id=round_index):
            return run_round(state, round_index)

    patcher.set(federation, "run_round", traced_round)
    patch(federation, "run_federated_search", "federation.search")
    patch(federation, "_run_client", "federation.client")
    patch(federation, "aggregate_by_client", "federation.aggregate")
    patch(federation, "evaluate", "federation.evaluate")
    patcher.set(federation, "ThreadPoolExecutor", _traced_pool(recorder))

    # data and experiment
    patch(data, "generate_synthetic", "data.generate_synthetic")
    patch(data, "iid_split", "data.partition")
    patch(data, "dirichlet_split", "data.partition")
    patcher.set(data.Dataset, "subset",
                _timed(recorder, vars(data.Dataset)["subset"], "data.subset"))
    patch(experiment, "build_datasets", "experiment.build_datasets")
    patch(experiment, "build_partition", "experiment.build_partition")
    patch(experiment, "rank_fixed_paths", "experiment.rank")


def _traced_pool(recorder: Recorder):
    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        """The pool's lifetime is the round's client phase; tasks run under
        the span that submitted them."""

        def __enter__(self):
            self._phase = recorder.open("federation.clients")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                recorder.close(self._phase)

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def run():
                with recorder.adopt(parent):
                    return fn(*args, **kwargs)

            return super().submit(run)

    return TracedThreadPoolExecutor


@contextmanager
def traced(recorder: Recorder):
    """Trace every dfnas layer for the duration of the block."""
    patcher = Patcher()
    try:
        install(recorder, patcher)
        yield recorder
    finally:
        patcher.restore()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span (keyed by id): duration minus the union of its children's
    intervals, clipped to the span. Children on other threads may overlap."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = s.duration - covered
    return out


def tail_stat(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label.

    With 20 samples or fewer that percentile is at or below the median, so
    the maximum is reported instead and labelled as such.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, "none"
    if n <= 20:
        return xs[-1], f"max of {n}"
    return xs[n - 11], f"p{100 * (n - 10) // n} of {n}"


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


# (kernel, groups) pairs the workloads run: stem and pointwise k1g1, dense
# k3g1/k5g1, depthwise at 8 channels k3g8, grouped 1x1 of shuffle3g2 k1g2.
CONV_SHAPES = ("k1g1", "k3g1", "k5g1", "k3g8", "k1g2")
TIMED_PRIMITIVES = (
    "matmul", "bias_add", "relu", "scale", "channel_shuffle", "flatten_batch",
    "softmax_cross_entropy",
)
CANDIDATE_KINDS = ("conv3", "conv5", "identity", "sep3", "shuffle3g2", "linear128")

FEDERATION_PHASES = {
    "blob.to_bytes": "encode",
    "federation.client": "clients",
    "federation.clients": "clients",
    "blob.from_bytes": "decode",
    "federation.aggregate": "aggregate",
    "supernet.unflatten_params": "load",
    "supernet.prune_edges": "load",
    "federation.evaluate": "evaluate",
}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".p50", ".tail")):
        return "s"
    if name.startswith("blob.bytes_"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _layer_metric_names() -> list[str]:
    names = []
    for op in [f"conv2d.{shape}" for shape in CONV_SHAPES] + list(TIMED_PRIMITIVES):
        names += [f"tensor.{op}.fwd_s", f"tensor.{op}.bwd_s", f"tensor.{op}.calls"]
    names += ["tensor.tape_backward.self_s", "tensor.sgd_step_s", "tensor.global_grad_norm_s"]
    names += [
        "supernet.sample_path_s", "supernet.forward_path.self_s", "supernet.alpha_gradient_s",
        "supernet.prune_edges_s", "supernet.forward_logits.self_s",
    ]
    for kind in CANDIDATE_KINDS:
        names += [f"supernet.candidate.{kind}.fwd_s", f"supernet.candidate.{kind}.executions"]
    names += [
        "supernet.build_supernet_s", "supernet.build_supernet.calls",
        "supernet.flatten_params_s", "supernet.unflatten_params_s", "supernet.init_waste_ratio",
    ]
    names += [
        "blob.to_bytes_s", "blob.to_bytes.calls", "blob.bytes_encoded",
        "blob.from_bytes_s", "blob.from_bytes.calls", "blob.bytes_decoded",
    ]
    names += [
        "local_search.client_s.p50", "local_search.client_s.tail",
        "local_search.step_s.p50", "local_search.step_s.tail",
        "local_search.batches", "local_search.self_s",
    ]
    names += [f"federation.{phase}_s" for phase in
              ("encode", "clients", "decode", "aggregate", "load", "evaluate")]
    names += [
        "federation.round.self_s", "federation.round_s", "federation.client_wait_s",
        "federation.client_busy_ratio", "federation.client_failures",
        "federation.client_attempts",
    ]
    names += ["data.generate_synthetic_s", "data.partition_s", "data.subset_s"]
    names += [
        "experiment.build_datasets_s", "experiment.rank.path_train_s",
        "experiment.rank.path_eval_s",
    ]
    names += ["trace.search_s", "trace.overhead_s", "trace.spans"]
    return names


LAYER_METRICS: dict[str, str] = {name: _unit(name) for name in _layer_metric_names()}


def _ancestor(span: Span, name: str) -> Span | None:
    s = span.parent
    while s is not None and s.name != name:
        s = s.parent
    return s


def layer_metrics(recorder: Recorder, workers: int = 1, clients_per_round: int = 1) -> dict:
    """Per-layer totals over every span the recorder holds.

    Returns {"metrics": {name: value}, "extra": {...}} where `extra` holds
    diagnostics outside `LAYER_METRICS` (unlisted conv shapes, unclassified
    round children, tail labels).
    """
    spans = recorder.spans
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        self_total[s.name] = self_total.get(s.name, 0.0) + selfs[id(s)]

    m: dict[str, float] = {
        name: 0 if unit in ("count", "B") else 0.0 for name, unit in LAYER_METRICS.items()
    }
    samples: dict[str, str] = {}
    extra: dict[str, object] = {"samples": samples}

    for name in calls:
        if name.startswith("tensor.") and not name.endswith(".bwd"):
            op = name[len("tensor."):]
            if op in ("tape_backward", "sgd_step", "global_grad_norm"):
                continue
            key = f"tensor.{op}"
            if f"{key}.calls" not in m:
                extra.setdefault("unlisted_ops", []).append(op)
            m[f"{key}.fwd_s"] = total[name]
            m[f"{key}.calls"] = calls[name]
            m[f"{key}.bwd_s"] = total.get(name + ".bwd", 0.0)
    m["tensor.tape_backward.self_s"] = self_total.get("tensor.tape_backward", 0.0)
    m["tensor.sgd_step_s"] = total.get("tensor.sgd_step", 0.0)
    m["tensor.global_grad_norm_s"] = total.get("tensor.global_grad_norm", 0.0)

    m["supernet.sample_path_s"] = total.get("supernet.sample_path", 0.0)
    m["supernet.forward_path.self_s"] = self_total.get("supernet.forward_path", 0.0)
    m["supernet.alpha_gradient_s"] = total.get("supernet.alpha_gradient", 0.0)
    m["supernet.prune_edges_s"] = total.get("supernet.prune_edges", 0.0)
    m["supernet.forward_logits.self_s"] = self_total.get("supernet.forward_logits", 0.0)
    for name in calls:
        if name.startswith("supernet.candidate."):
            kind = name[len("supernet.candidate."):]
            m[f"supernet.candidate.{kind}.fwd_s"] = total[name]
    for s in spans:
        if s.name.startswith("supernet.candidate.") and s.parent is not None \
                and s.parent.name == "supernet.forward_path":
            key = f"{s.name}.executions"
            m[key] = m.get(key, 0) + 1
    m["supernet.build_supernet_s"] = total.get("supernet.build_supernet", 0.0)
    m["supernet.build_supernet.calls"] = calls.get("supernet.build_supernet", 0)
    m["supernet.flatten_params_s"] = total.get("supernet.flatten_params", 0.0)
    m["supernet.unflatten_params_s"] = total.get("supernet.unflatten_params", 0.0)
    m["supernet.init_waste_ratio"] = (
        recorder.wasted_builds / recorder.builds if recorder.builds else 0.0
    )

    for op, moved in (("to_bytes", "encoded"), ("from_bytes", "decoded")):
        m[f"blob.{op}_s"] = total.get(f"blob.{op}", 0.0)
        m[f"blob.{op}.calls"] = calls.get(f"blob.{op}", 0)
        m[f"blob.bytes_{moved}"] = sum(s.value for s in spans if s.name == f"blob.{op}")

    clients = [s for s in spans if s.name == "local_search.client"]
    steps = _step_durations(spans)
    for key, values in (("local_search.client_s", [s.duration for s in clients]),
                        ("local_search.step_s", steps)):
        m[f"{key}.p50"] = p50(values)
        samples[f"{key}.p50"] = f"median of {len(values)}"
        m[f"{key}.tail"], samples[f"{key}.tail"] = tail_stat(values)
    m["local_search.batches"] = len(steps)
    m["local_search.self_s"] = self_total.get("local_search.client", 0.0)
    extra["local_search.reported_batches"] = sum(s.value for s in clients)

    phases = {phase: 0.0 for phase in set(FEDERATION_PHASES.values())}
    rounds = [s for s in spans if s.name == "federation.round"]
    round_ids = {id(s) for s in rounds}
    unclassified = {}
    for s in spans:
        if s.parent is not None and id(s.parent) in round_ids:
            if s.thread != s.parent.thread:
                continue  # only the round's own thread blocks the round
            phase = FEDERATION_PHASES.get(s.name)
            if phase is None:
                unclassified[s.name] = unclassified.get(s.name, 0.0) + s.duration
            else:
                phases[phase] += s.duration
    for phase, value in phases.items():
        m[f"federation.{phase}_s"] = value
    m["federation.round.self_s"] = sum((selfs[id(s)] for s in rounds), 0.0)
    m["federation.round_s"] = sum((s.duration for s in rounds), 0.0)
    extra["federation.unclassified_s"] = unclassified

    tasks = [s for s in spans if s.name == "federation.client"]
    waits = []
    for s in tasks:
        r = _ancestor(s, "federation.round")
        if r is not None:
            waits.append(s.start - r.start)
    m["federation.client_wait_s"] = float(np.mean(waits)) if waits else 0.0
    samples["federation.client_wait_s"] = f"mean of {len(waits)} client tasks"
    busy = sum(s.duration for s in tasks)
    capacity = min(workers, clients_per_round) * m["federation.clients_s"]
    m["federation.client_busy_ratio"] = busy / capacity if capacity > 0 else 0.0
    m["federation.client_failures"] = sum(1 for s in tasks if s.error is not None)
    m["federation.client_attempts"] = len(tasks)

    m["data.generate_synthetic_s"] = total.get("data.generate_synthetic", 0.0)
    m["data.partition_s"] = total.get("data.partition", 0.0)
    m["data.subset_s"] = total.get("data.subset", 0.0)
    m["experiment.build_datasets_s"] = total.get("experiment.build_datasets", 0.0)
    for s in spans:
        if s.parent is not None and s.parent.name == "experiment.rank":
            if s.name == "local_search.client":
                m["experiment.rank.path_train_s"] += s.duration
            elif s.name == "federation.evaluate":
                m["experiment.rank.path_eval_s"] += s.duration
    m["trace.spans"] = len(spans)
    return {"metrics": m, "extra": extra}


def _step_durations(spans: list[Span]) -> list[float]:
    """One local step runs from one `sample_path` to the next inside a
    client's search; the last ends with the client's last traced call."""
    by_client: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and s.parent.name == "local_search.client":
            by_client.setdefault(id(s.parent), []).append(s)
    out = []
    for children in by_client.values():
        children.sort(key=lambda c: c.start)
        starts = [c.start for c in children if c.name == "supernet.sample_path"]
        if not starts:
            continue
        # the closing flatten_params belongs to the client, not to its last step
        last_end = max(c.end for c in children if c.name != "supernet.flatten_params")
        bounds = starts + [last_end]
        out.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return out

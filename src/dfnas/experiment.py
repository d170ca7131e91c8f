"""Config-driven experiment runner and run comparison.

`run_experiment` builds the scenario from an ExperimentConfig, runs the
federated search (or the fixed-architecture baseline), and writes:

* ``metrics.csv``  - one row per round; byte-reproducible from (config, seed).
  The ``work_units`` column is a deterministic work proxy (candidate executions
  plus evaluated samples); real elapsed time goes to the printed summary only.
* ``child.txt``    - the derived architecture description.
* ``round_NNNN.blob`` checkpoints when enabled.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    data_specs,
    federation_config,
    local_config,
    serialize_config,
    space_config,
)
from .data import Dataset, Partition, dirichlet_split, generate_synthetic, iid_split
from .errors import ConfigurationError, FormatError, read_input_text, writing
from .federation import FederationResult, evaluate, run_federated_search
from .local_search import LocalSearchConfig, client_local_search
from .seeds import derive_seed, stream
from .supernet import build_supernet, describe_child, flatten_params, unflatten_params

METRICS_HEADER = "round,clients,test_acc,test_loss,bytes_up,bytes_down,work_units"


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Client training pool and the server-held test set."""
    train, test = data_specs(config)
    return (
        generate_synthetic(train, stream(config.master_seed, "data", "train")),
        generate_synthetic(test, stream(config.master_seed, "data", "test")),
    )


def build_partition(config: ExperimentConfig, train: Dataset) -> Partition:
    rng = stream(config.master_seed, "partition", 0)
    if config.partition_kind == "iid":
        return iid_split(train, config.federation_client_pool, rng)
    return dirichlet_split(
        train, config.federation_client_pool, config.partition_concentration, rng
    )


def metrics_rows(history) -> str:
    lines = [METRICS_HEADER]
    for rec in history:
        lines.append(
            f"{rec.round_index},{len(rec.client_ids)},{rec.test_acc!r},"
            f"{rec.test_loss!r},{rec.bytes_up},{rec.bytes_down},{rec.work_units}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentArtifacts:
    result: FederationResult
    metrics_path: Path
    child_path: Path
    config_path: Path


def run_experiment(config: ExperimentConfig) -> ExperimentArtifacts:
    started = time.perf_counter()
    out_dir = Path(config.resolved_output_dir())
    with writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)

    train, test = build_datasets(config)
    partition = build_partition(config, train)
    space = space_config(config)
    fed = federation_config(config)
    local = local_config(config)

    callback = None
    if config.federation_checkpoints:
        def callback(record, blob):
            path = out_dir / f"round_{record.round_index:04d}.blob"
            with writing(path):
                path.write_bytes(blob.to_bytes())

    result = run_federated_search(
        train, test, partition, space, fed, local, round_callback=callback
    )

    metrics_path = out_dir / "metrics.csv"
    child_path = out_dir / "child.txt"
    config_path = out_dir / "config.used"
    for path, text in ((metrics_path, metrics_rows(result.history)),
                       (child_path, describe_child(result.child)),
                       (config_path, serialize_config(config))):
        with writing(path):
            path.write_text(text, encoding="utf-8")

    elapsed = time.perf_counter() - started
    final = result.history[-1]
    total_bytes = sum(r.bytes_up + r.bytes_down for r in result.history)
    print(
        f"{config.scenario}: {config.mode} finished {fed.rounds} rounds, "
        f"final_acc={final.test_acc:.4f}, total_bytes={total_bytes}, "
        f"wall={elapsed:.1f}s -> {metrics_path}"
    )
    return ExperimentArtifacts(
        result=result,
        metrics_path=metrics_path,
        child_path=child_path,
        config_path=config_path,
    )


# ---------------------------------------------------------------------------
# exhaustive fixed-path ranking (the oracle behind the search-vs-baseline claim)


@dataclass(frozen=True)
class PathRank:
    path: tuple[int, ...]
    test_acc: float
    final_loss: float


# Part of every ranking-cache key. Bump it whenever a change alters float
# summation order anywhere a ranked path trains or evaluates (so that the bits
# of a ranking change), and rankings cached by older code are recomputed
# instead of silently reused. Changes that keep every output bit leave it as is.
NUMERICS_VERSION = 4


def _ranking_recipe(config: ExperimentConfig, epochs: int):
    """How each fixed path trains: plain SGD on the weights, alpha frozen,
    chosen for optimization stability (it assesses architectures)."""
    return LocalSearchConfig(epochs=epochs, batch_size=config.local_batch_size, lr_w=0.05,
                             lr_alpha=0.0, momentum_w=0.0, clip_norm=None)


def _ranking_cache_key(config: ExperimentConfig, epochs: int) -> str:
    """Hash of the layer configs a ranking is built from, so none of their fields is left out."""
    inputs = (
        NUMERICS_VERSION, config.master_seed, _ranking_recipe(config, epochs),
        *data_specs(config), replace(space_config(config), fixed_path=None),
    )
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def rank_fixed_paths(
    config: ExperimentConfig,
    train: Dataset,
    test: Dataset,
    epochs: int = 2,
    cache_path: Path | None = None,
) -> list[PathRank]:
    """Centrally train every fixed path and rank by server-test accuracy.

    Expensive, so results can be cached on disk keyed by the scenario inputs;
    a cache that does not parse, or does not rank every path once, counts as
    a miss. Returned sorted best first (accuracy, then lower loss).
    """
    key = _ranking_cache_key(config, epochs)
    paths = list(itertools.product(range(len(config.space_candidates)),
                                   repeat=config.space_blocks))
    if cache_path is not None:
        cache_path = Path(cache_path)
        try:
            payload = json.loads(cache_path.read_text(encoding="utf-8"))
            if payload["key"] == key:
                cached = [PathRank(tuple(e["path"]), e["test_acc"], e["final_loss"])
                          for e in payload["ranks"]]
                if sorted(r.path for r in cached) == paths:
                    return cached
        except (OSError, ValueError, KeyError, TypeError):
            pass  # missing, torn or foreign: recompute and overwrite

    recipe = _ranking_recipe(config, epochs)
    ranks: list[PathRank] = []
    for path in paths:
        sp = space_config(config, fixed_path=path)
        net = build_supernet(sp)
        blob = flatten_params(net, include_alpha=False)
        seed = derive_seed(config.master_seed, "ranking", *path)
        report = client_local_search(blob, train, sp, recipe, seed=seed)
        unflatten_params(net, report.blob)
        acc, _ = evaluate(net, test)
        ranks.append(PathRank(path=path, test_acc=acc, final_loss=report.epoch_losses[-1]))
    ranks.sort(key=lambda r: (-r.test_acc, r.final_loss, r.path))

    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"key": key, "ranks": [asdict(r) for r in ranks]}, indent=1),
                       encoding="utf-8")
        os.replace(tmp, cache_path)  # a cut write leaves the old file, never a torn one
    return ranks


# ---------------------------------------------------------------------------
# comparing metrics files


def read_metrics(path) -> tuple[list[str], list[dict[str, float]]]:
    lines = read_input_text(path, FormatError).strip().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise FormatError(
            f"{path}: metrics header mismatch (expected {METRICS_HEADER!r})"
        )
    columns = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise FormatError(f"{path}: line {i} has {len(parts)} fields")
        row = {}
        for column, cell in zip(columns, parts):
            try:
                row[column] = float(cell)
            except ValueError:
                raise FormatError(f"{path}: line {i}, column {column}: {cell!r} is not a number")
            if not math.isfinite(row[column]):
                raise FormatError(f"{path}: line {i}, column {column}: {cell!r} is not finite")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no rounds after the header")
    return columns, rows


def compare_runs(paths: list, out_path=None) -> str:
    """Aligned per-round accuracy table plus a final-round summary."""
    if len(paths) < 2:
        raise ConfigurationError("compare needs at least two metrics files")
    names = []
    for p in paths:
        stem = Path(p).parent.name or Path(p).stem
        name = stem
        k = 2
        while name in names:
            name = f"{stem}#{k}"
            k += 1
        names.append(name)
    tables = [read_metrics(p)[1] for p in paths]

    max_rounds = max(len(rows) for rows in tables)
    lines = ["round," + ",".join(f"{n}_acc" for n in names)]
    for r in range(max_rounds):
        cells = [str(r)]
        for rows in tables:
            cells.append(repr(rows[r]["test_acc"]) if r < len(rows) else "")
        lines.append(",".join(cells))

    finals = np.array([rows[-1]["test_acc"] for rows in tables])
    mean = float(finals.mean()) * 100.0
    std = float(finals.std()) * 100.0
    summary = f"final accuracy: {mean:.2f} +/- {std:.2f} (%, n={len(paths)})"
    text = "\n".join(lines) + "\n" + summary + "\n"
    if out_path is not None:
        with writing(out_path):
            Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return text


def inspect_child(path) -> str:
    text = read_input_text(path, FormatError)
    lines = text.strip().splitlines()
    if not lines or lines[0] != "child-architecture v1":
        raise FormatError(f"{path}: not a child architecture description")
    return text

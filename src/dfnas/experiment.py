"""Config-driven experiment runner and run comparison.

`run_experiment` builds the scenario from an ExperimentConfig, runs the
federated search (or the fixed-architecture baseline), and writes:

* ``metrics.csv``  - one row per round; byte-reproducible from (config, seed).
  The ``wall_ms`` column is a deterministic work proxy (candidate executions
  plus evaluated samples); real elapsed time goes to the printed summary only.
* ``child.txt``    - the derived architecture description.
* ``round_NNNN.blob`` checkpoints when enabled.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    data_spec,
    federation_config,
    local_config,
    serialize_config,
    space_config,
)
from .data import Dataset, Partition, dirichlet_split, generate_synthetic, iid_split
from .errors import ConfigurationError, FormatError
from .federation import FederationResult, evaluate, run_federated_search
from .local_search import LocalSearchConfig, client_local_search
from .seeds import derive_seed, stream
from .supernet import build_supernet, flatten_params, unflatten_params

METRICS_HEADER = "round,clients,test_acc,test_loss,bytes_up,bytes_down,wall_ms"


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Client training pool and the server-held test set."""
    train = generate_synthetic(
        data_spec(config, config.data_train_samples),
        stream(config.master_seed, "data", "train"),
    )
    test = generate_synthetic(
        data_spec(config, config.data_test_samples),
        stream(config.master_seed, "data", "test"),
    )
    return train, test


def build_partition(config: ExperimentConfig, train: Dataset, round_index: int = 0) -> Partition:
    rng = stream(config.master_seed, "partition", round_index)
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
    elapsed_s: float


def run_experiment(config: ExperimentConfig, quiet: bool = False) -> ExperimentArtifacts:
    started = time.perf_counter()
    out_dir = Path(config.resolved_output_dir())
    out_dir.mkdir(parents=True, exist_ok=True)

    train, test = build_datasets(config)
    partition = build_partition(config, train)
    space = space_config(config)
    fed = federation_config(config)
    local = local_config(config)

    resplit = None
    if config.partition_resplit_each_round and config.partition_kind == "iid":
        resplit = lambda t: build_partition(config, train, t)  # noqa: E731

    callback = None
    if config.federation_checkpoints:
        def callback(record, blob):
            (out_dir / f"round_{record.round_index:04d}.blob").write_bytes(blob.to_bytes())

    result = run_federated_search(
        train, test, partition, space, fed, local,
        resplit=resplit, round_callback=callback,
    )

    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text(metrics_rows(result.history), encoding="utf-8")
    child_path = out_dir / "child.txt"
    child_path.write_text(result.child.describe(), encoding="utf-8")
    config_path = out_dir / "config.used"
    config_path.write_text(serialize_config(config), encoding="utf-8")

    elapsed = time.perf_counter() - started
    final = result.history[-1]
    total_bytes = sum(r.bytes_up + r.bytes_down for r in result.history)
    if not quiet:
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
        elapsed_s=elapsed,
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
NUMERICS_VERSION = 1


def _ranking_cache_key(config: ExperimentConfig, epochs: int, lr: float, momentum: float) -> str:
    payload = {
        "numerics": NUMERICS_VERSION,
        "candidates": list(config.space_candidates),
        "blocks": config.space_blocks,
        "channels": config.space_channels,
        "hidden_width": config.space_hidden_width,
        "data": [config.data_kind, config.data_train_samples, config.data_test_samples,
                 config.data_classes, config.data_noise, config.data_image_size,
                 config.data_image_channels, config.data_feature_dim],
        "seed": config.master_seed,
        "epochs": epochs,
        "batch": config.local_batch_size,
        "lr": lr,
        "momentum": momentum,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def rank_fixed_paths(
    config: ExperimentConfig,
    train: Dataset,
    test: Dataset,
    epochs: int = 2,
    lr: float = 0.05,
    momentum: float = 0.0,
    cache_path: Path | None = None,
) -> list[PathRank]:
    """Centrally train every fixed path and rank by server-test accuracy.

    Plain SGD by default: the point is to assess architectures, so the recipe
    is chosen for optimization stability, not speed records. Expensive, so
    results can be cached on disk keyed by the scenario inputs. Returned
    sorted best first (accuracy, then lower loss).
    """
    key = _ranking_cache_key(config, epochs, lr, momentum)
    if cache_path is not None and Path(cache_path).exists():
        payload = json.loads(Path(cache_path).read_text(encoding="utf-8"))
        if payload.get("key") == key:
            return [
                PathRank(tuple(e["path"]), e["test_acc"], e["final_loss"])
                for e in payload["ranks"]
            ]

    m = len(config.space_candidates)
    ranks: list[PathRank] = []
    for path in itertools.product(range(m), repeat=config.space_blocks):
        sp = space_config(config, fixed_path=path)
        net = build_supernet(sp)
        blob = flatten_params(net, include_alpha=False)
        cfg = LocalSearchConfig(
            epochs=epochs,
            batch_size=config.local_batch_size,
            lr_w=lr,
            lr_alpha=0.0,
            momentum_w=momentum,
            seed=derive_seed(config.master_seed, "ranking", *path),
        )
        report = client_local_search(blob, train, sp, cfg)
        unflatten_params(net, report.blob)
        acc, _ = evaluate(net, test)
        ranks.append(PathRank(path=path, test_acc=acc, final_loss=report.epoch_losses[-1]))
    ranks.sort(key=lambda r: (-r.test_acc, r.final_loss, r.path))

    if cache_path is not None:
        cache_path = Path(cache_path)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(
            json.dumps(
                {
                    "key": key,
                    "ranks": [
                        {"path": list(r.path), "test_acc": r.test_acc,
                         "final_loss": r.final_loss}
                        for r in ranks
                    ],
                },
                indent=1,
            ),
            encoding="utf-8",
        )
    return ranks


# ---------------------------------------------------------------------------
# comparing metrics files


def read_metrics(path) -> tuple[list[str], list[dict[str, float]]]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
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
        rows.append({c: float(v) for c, v in zip(columns, parts)})
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
    tables = []
    for p in paths:
        columns, rows = read_metrics(p)
        tables.append(rows)

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
        Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return text


def inspect_child(path) -> str:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    if not lines or lines[0] != "child-architecture v1":
        raise FormatError(f"{path}: not a child architecture description")
    return text

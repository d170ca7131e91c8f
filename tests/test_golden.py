"""Golden-bytes manifest: the output bytes of small runs, pinned across commits.

`golden.json` holds the sha256 of `metrics.csv`, `child.txt` and the final
blob of each config below, and of a short exhaustive fixed-path ranking, with
the `NUMERICS_VERSION`, NumPy version and BLAS they were recorded under. A
change that is not meant to alter numerics must leave every digest as it is.
A change that is meant to alter them regenerates the manifest and says so; if
it changes the bits of a ranked path, it also bumps `NUMERICS_VERSION`.
Regenerate with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each digest, whether it changed against the committed manifest.

Other NumPy releases and BLAS builds may route a contraction differently, so
a mismatch under another environment is reported as such, not as a change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dfnas.config import ExperimentConfig, serialize_config, validate_config
from dfnas.experiment import (
    NUMERICS_VERSION,
    build_datasets,
    rank_fixed_paths,
    run_experiment,
)

GOLDEN = Path(__file__).with_name("golden.json")

# Criterion 7's scenario (8x8 patches, 4 classes, Dirichlet 0.5) at a few
# seconds per run.
_SMALL = ExperimentConfig(
    master_seed=11, data_train_samples=512, data_test_samples=128,
    space_blocks=2, space_channels=4, federation_rounds=4, local_epochs=1,
    local_lr_w=0.02,
)

CONFIGS = {
    "dense-conv-clip": replace(_SMALL, local_clip_norm=1.0),
    "grouped-2workers-clip": replace(
        _SMALL, partition_kind="iid", space_candidates=("sep3", "shuffle3g2", "conv3", "identity"),
        space_channels=8, federation_client_pool=6, federation_workers=2,
        local_lr_w=0.05, local_clip_norm=2.0,
    ),
    "vector-fanout": replace(
        _SMALL, data_kind="blobs", data_train_samples=512, data_noise=1.0,
        partition_kind="iid", space_blocks=3, space_candidates=("linear128", "identity"),
        space_hidden_width=128, federation_client_pool=12, federation_clients_per_round=8,
        federation_workers=2, local_lr_w=0.05,
    ),
    "baseline": replace(_SMALL, mode="baseline", space_fixed_path=(1, 0)),
    "server-pruning": replace(
        _SMALL, local_lr_alpha=0.05, federation_server_alpha_threshold=0.003
    ),
}

FILES = ("metrics.csv", "child.txt", "final.blob")

# `rank_fixed_paths` over the 3**2 paths of _SMALL, one epoch each, cache off.
RANKING = _SMALL


def environment() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # NumPy before 1.25 prints its config only
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    """sha256 of the config and of each output file of one run."""
    config = CONFIGS[name]
    art = run_experiment(replace(config, output_dir=str(out_dir)))
    return {
        "config": _sha256(serialize_config(config).encode()),
        "metrics.csv": _sha256(art.metrics_path.read_bytes()),
        "child.txt": _sha256(art.child_path.read_bytes()),
        "final.blob": _sha256(art.result.final_blob.to_bytes()),
    }


def ranking_digests() -> dict[str, str]:
    """sha256 of the config and of the ranking's paths, accuracies and losses."""
    train, test = build_datasets(RANKING)
    ranks = rank_fixed_paths(RANKING, train, test, epochs=1)
    table = json.dumps([[list(r.path), r.test_acc, r.final_loss] for r in ranks])
    return {
        "config": _sha256(serialize_config(RANKING).encode()),
        "ranks": _sha256(table.encode()),
    }


def _manifest() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_manifest_covers_every_config():
    manifest = _manifest()
    assert sorted(manifest["runs"]) == sorted(CONFIGS)
    assert manifest["numerics_version"] == NUMERICS_VERSION, (
        f"golden.json was recorded at NUMERICS_VERSION {manifest['numerics_version']}, "
        f"the code is at {NUMERICS_VERSION}: regenerate it"
    )
    for name, config in CONFIGS.items():
        assert validate_config(config) == [], name


def _check_digests(name: str, got: dict, want: dict, files) -> None:
    manifest = _manifest()
    assert got["config"] == want["config"], (
        f"{name}: the config changed since golden.json was written; regenerate it"
    )
    changed = [f for f in files if got[f] != want[f]]
    if not changed:
        return
    here = environment()
    if here != manifest["environment"]:
        pytest.fail(
            f"{name}: {', '.join(changed)} differ from golden.json, but the environment "
            f"differs too (recorded {manifest['environment']}, running {here}), so this "
            f"is not evidence of a numerics change"
        )
    pytest.fail(
        f"{name}: {', '.join(changed)} changed bytes against golden.json "
        f"(same environment {here}). If the change is meant to alter numerics, "
        f"regenerate the manifest and declare it."
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_output_bytes_match_golden_manifest(name, tmp_path):
    _check_digests(name, run_digests(name, tmp_path), _manifest()["runs"][name], FILES)


def test_fixed_path_ranking_matches_golden_manifest():
    _check_digests("ranking", ranking_digests(), _manifest()["ranking"], ("ranks",))


def write_manifest(scratch: Path) -> dict:
    manifest = {
        "numerics_version": NUMERICS_VERSION,
        "environment": environment(),
        "runs": {name: run_digests(name, scratch / name) for name in CONFIGS},
        "ranking": ranking_digests(),
    }
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _entries(manifest: dict) -> dict[str, str]:
    """`name/file` -> digest, for every digest in a manifest."""
    digests = {**manifest["runs"], "ranking": manifest["ranking"]}
    return {f"{name}/{f}": d for name, files in digests.items() for f, d in files.items()}


if __name__ == "__main__":
    import tempfile

    before = _entries(_manifest()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        after = _entries(write_manifest(Path(tmp)))
    for entry, digest in after.items():
        state = "new" if entry not in before else "same" if before[entry] == digest else "changed"
        print(f"{state:7} {entry}")

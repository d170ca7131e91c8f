"""Experiment runner artifacts, reproducibility, ranking, comparison, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dfnas import experiment
from dfnas.cli import main
from dfnas.config import ExperimentConfig, override, serialize_config
from dfnas.errors import ConfigurationError, FormatError
from dfnas.experiment import (
    METRICS_HEADER,
    PathRank,
    build_datasets,
    build_partition,
    compare_runs,
    inspect_child,
    rank_fixed_paths,
    read_metrics,
    run_experiment,
)


def small_config(tmp_path, **overrides):
    base = ExperimentConfig(
        scenario="t",
        master_seed=3,
        output_dir=str(tmp_path / "run"),
        data_kind="blobs",
        data_train_samples=160,
        data_test_samples=80,
        data_classes=2,
        data_noise=0.3,
        data_feature_dim=4,
        partition_kind="iid",
        space_blocks=2,
        space_candidates=("linear8", "identity"),
        space_hidden_width=8,
        federation_rounds=3,
        federation_client_pool=2,
        federation_clients_per_round=2,
        local_epochs=1,
        local_batch_size=16,
        local_lr_w=0.05,
        local_lr_alpha=0.01,
    )
    return override(base, **overrides) if overrides else base


def test_run_writes_all_artifacts(tmp_path):
    art = run_experiment(small_config(tmp_path), quiet=True)
    assert art.metrics_path.exists()
    assert art.child_path.exists()
    assert art.config_path.exists()
    text = art.metrics_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 3  # header + one row per round
    assert inspect_child(art.child_path).startswith("child-architecture v1")


def test_metrics_csv_is_byte_reproducible(tmp_path):
    a = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "a")), quiet=True)
    b = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "b")), quiet=True)
    assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    assert a.child_path.read_bytes() == b.child_path.read_bytes()


def test_different_seed_changes_metrics(tmp_path):
    a = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "a")), quiet=True)
    b = run_experiment(
        small_config(tmp_path, output_dir=str(tmp_path / "b"), master_seed=4), quiet=True
    )
    assert a.metrics_path.read_bytes() != b.metrics_path.read_bytes()


def test_checkpoints_written_when_enabled(tmp_path):
    config = small_config(tmp_path, federation_checkpoints=True)
    run_experiment(config, quiet=True)
    out = tmp_path / "run"
    assert (out / "round_0000.blob").exists()
    assert (out / "round_0002.blob").exists()


def test_baseline_mode_reproduces_plain_fedavg(tmp_path):
    """A search space fixed to one candidate chain equals baseline mode."""
    baseline = small_config(
        tmp_path,
        output_dir=str(tmp_path / "baseline"),
        mode="baseline",
        space_fixed_path=(0, 0),
    )
    art_b = run_experiment(baseline, quiet=True)
    # degenerate search space: the same chain, search machinery on
    degen = small_config(
        tmp_path,
        output_dir=str(tmp_path / "degen"),
        space_candidates=("linear8",),
        local_lr_alpha=0.0,
    )
    art_d = run_experiment(degen, quiet=True)
    accs_b = [r.test_acc for r in art_b.result.history]
    accs_d = [r.test_acc for r in art_d.result.history]
    assert accs_b == accs_d
    assert art_b.result.child.kinds == art_d.result.child.kinds


def test_resplit_each_round_changes_shards(tmp_path):
    config = small_config(
        tmp_path, partition_kind="iid", partition_resplit_each_round=True
    )
    art = run_experiment(config, quiet=True)
    assert len(art.result.history) == 3
    train, _ = build_datasets(config)
    p0 = build_partition(config, train, 0)
    p1 = build_partition(config, train, 1)
    assert not np.array_equal(p0.client_indices[0], p1.client_indices[0])


def test_client_count_sweep_produces_one_csv_per_setting(tmp_path):
    finals = {}
    for k in (2, 4, 8):
        cfg = small_config(
            tmp_path,
            output_dir=str(tmp_path / f"clients-{k}"),
            data_train_samples=240,
            federation_client_pool=k,
            federation_clients_per_round=k,
        )
        art = run_experiment(cfg, quiet=True)
        finals[k] = art.result.history[-1].test_acc
    for k in (2, 4, 8):
        path = tmp_path / f"clients-{k}" / "metrics.csv"
        assert path.exists()
        _, rows = read_metrics(path)
        assert len(rows) == 3
        assert rows[0]["clients"] == k
    assert set(finals) == {2, 4, 8}


def test_ranking_cache_from_other_numerics_version_is_recomputed(tmp_path, monkeypatch):
    config = small_config(tmp_path)
    train, test = build_datasets(config)
    cache = tmp_path / "ranks.json"
    fresh = rank_fixed_paths(config, train, test, epochs=1, cache_path=cache)

    # The same ranking cached by code with other numerics, and other numbers.
    monkeypatch.setattr(experiment, "NUMERICS_VERSION", experiment.NUMERICS_VERSION + 1)
    stale = [PathRank(r.path, 0.0, 9.0) for r in fresh]
    other_key = experiment._ranking_cache_key(config, 1, 0.05, 0.0)
    cache.write_text(json.dumps({"key": other_key, "ranks": [
        {"path": list(r.path), "test_acc": r.test_acc, "final_loss": r.final_loss}
        for r in stale
    ]}))
    assert rank_fixed_paths(config, train, test, epochs=1, cache_path=cache) == stale

    monkeypatch.undo()
    assert rank_fixed_paths(config, train, test, epochs=1, cache_path=cache) == fresh
    assert json.loads(cache.read_text())["key"] != other_key


def test_rank_fixed_paths_orders_and_caches(tmp_path):
    config = small_config(tmp_path, data_kind="rings", data_feature_dim=2,
                          data_noise=0.05, data_train_samples=256, data_test_samples=128)
    train, test = build_datasets(config)
    cache = tmp_path / "ranks.json"
    ranks = rank_fixed_paths(config, train, test, epochs=10, cache_path=cache)
    assert len(ranks) == 4  # 2 blocks x 2 candidates
    assert ranks[0].test_acc >= ranks[-1].test_acc
    assert ranks[-1].path == (1, 1)  # identity-identity cannot fit rings
    assert cache.exists()
    again = rank_fixed_paths(config, train, test, epochs=10, cache_path=cache)
    assert again == ranks


# --- compare ---


def test_compare_run_against_itself_zero_difference(tmp_path):
    art = run_experiment(small_config(tmp_path), quiet=True)
    text = compare_runs([art.metrics_path, art.metrics_path])
    assert "+/- 0.00" in text
    columns = text.strip().splitlines()[0].split(",")
    assert columns[0] == "round" and len(columns) == 3
    rows = [line.split(",") for line in text.strip().splitlines()[1:-1]]
    assert all(r[1] == r[2] for r in rows)


def test_compare_reports_mean_and_std(tmp_path):
    paths = []
    for seed in (1, 2, 3):
        cfg = small_config(tmp_path, output_dir=str(tmp_path / f"s{seed}"),
                           master_seed=seed)
        paths.append(run_experiment(cfg, quiet=True).metrics_path)
    out = tmp_path / "cmp.csv"
    text = compare_runs(paths, out_path=out)
    assert "final accuracy:" in text
    assert "+/-" in text and "n=3" in text
    assert out.read_text().startswith("round,")


def test_compare_rejects_schema_mismatch(tmp_path):
    art = run_experiment(small_config(tmp_path), quiet=True)
    bad = tmp_path / "bad.csv"
    bad.write_text("round,accuracy\n0,0.5\n")
    with pytest.raises(FormatError):
        compare_runs([art.metrics_path, bad])
    with pytest.raises(ConfigurationError):
        compare_runs([art.metrics_path])


def test_read_metrics_roundtrip(tmp_path):
    art = run_experiment(small_config(tmp_path), quiet=True)
    columns, rows = read_metrics(art.metrics_path)
    assert columns == METRICS_HEADER.split(",")
    assert [int(r["round"]) for r in rows] == [0, 1, 2]
    history = art.result.history
    assert rows[-1]["test_acc"] == history[-1].test_acc


# --- cli ---


def write_config(tmp_path, **overrides):
    config = small_config(tmp_path, **overrides)
    path = tmp_path / "exp.conf"
    path.write_text(serialize_config(config), encoding="utf-8")
    return path


def test_cli_run_and_inspect(tmp_path, capsys):
    conf = write_config(tmp_path)
    assert main(["run", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "final_acc=" in out
    child = tmp_path / "run" / "child.txt"
    assert main(["inspect-child", str(child)]) == 0
    assert "child-architecture v1" in capsys.readouterr().out


def test_cli_overrides_seed_out_and_mode(tmp_path, capsys):
    conf = write_config(tmp_path, space_fixed_path=(0, 0))
    out_dir = tmp_path / "elsewhere"
    assert main(["run", str(conf), "--seed", "9", "--out", str(out_dir),
                 "--mode", "baseline"]) == 0
    used = (out_dir / "config.used").read_text()
    assert "master_seed = 9" in used
    assert "mode = baseline" in used


def test_cli_compare(tmp_path, capsys):
    conf = write_config(tmp_path)
    assert main(["run", str(conf), "--out", str(tmp_path / "x")]) == 0
    assert main(["run", str(conf), "--out", str(tmp_path / "y"), "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "x" / "metrics.csv"),
                 str(tmp_path / "y" / "metrics.csv")]) == 0
    assert "final accuracy:" in capsys.readouterr().out


def test_cli_config_error_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("federation.rounds = 0\n")
    assert main(["run", str(bad)]) == 2
    assert "rounds" in capsys.readouterr().err
    missing_fixed = write_config(tmp_path)
    assert main(["run", str(missing_fixed), "--mode", "baseline"]) == 2


def test_cli_runtime_error_exit_code_3(tmp_path, capsys):
    # a divergent learning rate blows up numerically inside a client round
    config = small_config(tmp_path, local_lr_w=1e18, local_momentum_w=0.0)
    path = tmp_path / "exp.conf"
    path.write_text(serialize_config(config), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error" in err and "client" in err


def test_cli_never_mutates_input_config(tmp_path):
    conf = write_config(tmp_path)
    before = conf.read_bytes()
    main(["run", str(conf)])
    assert conf.read_bytes() == before

"""Experiment runner artifacts, reproducibility, ranking, comparison, CLI."""

from __future__ import annotations

import json
from dataclasses import fields, replace

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
    art = run_experiment(small_config(tmp_path))
    assert art.metrics_path.exists()
    assert art.child_path.exists()
    assert art.config_path.exists()
    text = art.metrics_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 3  # header + one row per round
    assert inspect_child(art.child_path).startswith("child-architecture v1")


def test_metrics_csv_is_byte_reproducible(tmp_path):
    a = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "a")))
    b = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "b")))
    assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    assert a.child_path.read_bytes() == b.child_path.read_bytes()


def test_different_seed_changes_metrics(tmp_path):
    a = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "a")))
    b = run_experiment(
        small_config(tmp_path, output_dir=str(tmp_path / "b"), master_seed=4)
    )
    assert a.metrics_path.read_bytes() != b.metrics_path.read_bytes()


def test_checkpoints_written_when_enabled(tmp_path):
    config = small_config(tmp_path, federation_checkpoints=True)
    run_experiment(config)
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
    art_b = run_experiment(baseline)
    # degenerate search space: the same chain, search machinery on
    degen = small_config(
        tmp_path,
        output_dir=str(tmp_path / "degen"),
        space_candidates=("linear8",),
        local_lr_alpha=0.0,
    )
    art_d = run_experiment(degen)
    accs_b = [r.test_acc for r in art_b.result.history]
    accs_d = [r.test_acc for r in art_d.result.history]
    assert accs_b == accs_d
    assert art_b.result.child.kinds == art_d.result.child.kinds


def test_baseline_child_numbers_candidates_in_the_space(tmp_path):
    config = small_config(
        tmp_path,
        mode="baseline",
        data_kind="patches",
        space_candidates=("conv3", "conv5", "identity"),
        space_fixed_path=(1, 0),
        space_channels=4,
        federation_rounds=1,
    )
    art = run_experiment(config)
    text = art.child_path.read_text()
    assert "block 0: candidate 1 (conv5" in text
    assert "block 1: candidate 0 (conv3" in text


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
        art = run_experiment(cfg)
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
    other_key = experiment._ranking_cache_key(config, 1)
    cache.write_text(json.dumps({"key": other_key, "ranks": [
        {"path": list(r.path), "test_acc": r.test_acc, "final_loss": r.final_loss}
        for r in stale
    ]}))
    assert rank_fixed_paths(config, train, test, epochs=1, cache_path=cache) == stale

    monkeypatch.undo()
    assert rank_fixed_paths(config, train, test, epochs=1, cache_path=cache) == fresh
    assert json.loads(cache.read_text())["key"] != other_key


def test_unparsable_ranking_cache_is_recomputed_and_rewritten(tmp_path):
    config = small_config(tmp_path)
    train, test = build_datasets(config)
    cache = tmp_path / "ranks.json"
    fresh = rank_fixed_paths(config, train, test, epochs=1, cache_path=cache)
    whole = cache.read_text()
    key = experiment._ranking_cache_key(config, 1)
    # the right key with 1 or 3 of the 4 paths, one path twice, or a path out of range
    ranks = json.loads(whole)["ranks"]
    partial = [ranks[:1], ranks[:3], ranks + ranks[:1], ranks[:3] + [dict(ranks[0], path=[0, 2])]]
    for broken in (whole[: len(whole) // 2], json.dumps({"key": key}), "[]",
                   *(json.dumps({"key": key, "ranks": r}) for r in partial)):
        cache.write_text(broken)
        assert rank_fixed_paths(config, train, test, epochs=1, cache_path=cache) == fresh
        assert cache.read_text() == whole
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ranks.json"]


# ExperimentConfig field -> another value. A ranking reads the first group and
# none of the second, so its cache key must change with each of the first only.
RANKING_INPUTS = {
    "master_seed": 1, "data_kind": "blobs", "data_train_samples": 400,
    "data_test_samples": 100, "data_classes": 3, "data_noise": 0.2, "data_feature_dim": 6,
    "data_image_channels": 2, "data_image_size": 6, "space_blocks": 3,
    "space_candidates": ("conv3", "identity"), "space_channels": 4, "space_hidden_width": 8,
    "local_batch_size": 16,
}
NOT_RANKING_INPUTS = {
    "scenario": "other", "mode": "baseline", "output_dir": "elsewhere",
    "partition_kind": "iid", "partition_concentration": 2.0, "space_fixed_path": (1, 1, 1, 1),
    "federation_rounds": 5, "federation_client_pool": 8, "federation_clients_per_round": 2,
    "federation_weighting": "uniform", "federation_server_alpha_threshold": 0.1,
    "federation_workers": 2, "federation_checkpoints": True, "local_epochs": 5,
    "local_lr_w": 0.01, "local_lr_alpha": 0.1, "local_momentum_w": 0.5, "local_clip_norm": 2.5,
}


def test_ranking_cache_key_changes_with_the_ranking_inputs_only():
    assert sorted(RANKING_INPUTS | NOT_RANKING_INPUTS) == sorted(
        f.name for f in fields(ExperimentConfig)
    )
    base = ExperimentConfig(space_fixed_path=(0, 0, 0, 0))
    key = experiment._ranking_cache_key(base, 2)
    for inputs, changes in ((RANKING_INPUTS, True), (NOT_RANKING_INPUTS, False)):
        for name, value in inputs.items():
            assert getattr(base, name) != value, name
            other = experiment._ranking_cache_key(replace(base, **{name: value}), 2)
            assert (other != key) == changes, name
    assert experiment._ranking_cache_key(base, 1) != key


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
    art = run_experiment(small_config(tmp_path))
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
        paths.append(run_experiment(cfg).metrics_path)
    out = tmp_path / "cmp.csv"
    text = compare_runs(paths, out_path=out)
    assert "final accuracy:" in text
    assert "+/-" in text and "n=3" in text
    assert out.read_text().startswith("round,")


def test_compare_rejects_schema_mismatch(tmp_path):
    art = run_experiment(small_config(tmp_path))
    bad = tmp_path / "bad.csv"
    bad.write_text("round,accuracy\n0,0.5\n")
    with pytest.raises(FormatError):
        compare_runs([art.metrics_path, bad])
    with pytest.raises(ConfigurationError):
        compare_runs([art.metrics_path])


def test_read_metrics_roundtrip(tmp_path):
    art = run_experiment(small_config(tmp_path))
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


def test_cli_rejects_bad_candidate_token_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    conf = tmp_path / "bad.conf"
    conf.write_text(f"output_dir = {out_dir}\nspace.candidates = conv3,IDENTITY\n")
    assert main(["run", str(conf)]) == 2
    assert "space.candidates" in capsys.readouterr().err
    assert not out_dir.exists()


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


GOOD_METRICS = METRICS_HEADER + "\n0,2,0.5,0.69,100,100,10\n"

# argv with {good} and {bad} paths, the bytes of `bad` (None: it does not
# exist), and what the error must say besides the path
BAD_INPUTS = {
    "run-missing": (["run", "{bad}"], None, "cannot read"),
    "run-not-utf8": (["run", "{bad}"], "scenario = café\n".encode("latin-1"), "not UTF-8"),
    "inspect-missing": (["inspect-child", "{bad}"], None, "cannot read"),
    "inspect-not-a-child": (["inspect-child", "{bad}"], b"metrics\n", "not a child architecture"),
    "compare-field-count": (
        ["compare", "{good}", "{bad}"],
        (METRICS_HEADER + "\n0,2,0.5,0.69,100,100\n").encode(), "line 2 has 6 fields",
    ),
    "compare-non-numeric": (
        ["compare", "{good}", "{bad}"],
        (METRICS_HEADER + "\n0,2,high,0.69,100,100,10\n").encode(),
        "line 2, column test_acc",
    ),
    "compare-no-rows": (
        ["compare", "{good}", "{bad}"], (METRICS_HEADER + "\n").encode(), "no rounds"
    ),
    **{
        f"compare-{cell}": (
            ["compare", "{good}", "{bad}"],
            (METRICS_HEADER + "\n0,2,0.5,0.69,100,100,10\n" + row).encode(),
            f"line 3, column {column}: '{cell}' is not finite",
        )
        for cell, column, row in (
            ("nan", "test_acc", "1,2,nan,0.69,100,100,10\n"),
            ("inf", "test_loss", "1,2,0.5,inf,100,100,10\n"),
            ("-inf", "test_loss", "1,2,0.5,-inf,100,100,10\n"),
            ("1e400", "bytes_up", "1,2,0.5,0.69,1e400,100,10\n"),
        )
    },
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_unreadable_input_exits_2_naming_the_path(case, tmp_path, capsys):
    argv, content, says = BAD_INPUTS[case]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.input"
    good.write_text(GOOD_METRICS, encoding="utf-8")
    if content is not None:
        bad.write_bytes(content)
    assert main([a.format(good=good, bad=bad) for a in argv]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and says in err


def test_cli_unwritable_output_exits_2_naming_the_path(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("not a directory\n")
    out_dir = blocker / "run"
    assert main(["run", str(write_config(tmp_path)), "--out", str(out_dir)]) == 2
    assert str(out_dir) in capsys.readouterr().err


def test_cli_compare_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text(GOOD_METRICS, encoding="utf-8")
    out = tmp_path / "missing" / "x.csv"
    assert main(["compare", str(good), str(good), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.slow
def test_shipped_defaults_leave_chance_within_two_rounds(tmp_path):
    # At lr_w 0.05 with no clip, every one of these seeds either diverged in
    # round 0 or read 0.25 (chance) in every round.
    for seed in range(1, 9):
        config = ExperimentConfig(master_seed=seed, federation_rounds=2,
                                  output_dir=str(tmp_path / str(seed)))
        history = run_experiment(config).result.history
        assert history[-1].test_acc > 0.35, (seed, [r.test_acc for r in history])

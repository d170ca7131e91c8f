"""Config file parsing, validation, and round trips."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest

from dfnas.config import (
    ExperimentConfig,
    override,
    parse_config,
    parse_config_text,
    serialize_config,
    validate_config,
)
from dfnas.errors import ConfigurationError

MINIMAL = """
scenario = demo
data.kind = blobs
data.classes = 2
data.feature_dim = 4
space.candidates = linear8,identity
space.hidden_width = 8
space.blocks = 2
"""


def test_minimal_config_fills_defaults():
    config = parse_config_text(MINIMAL)
    assert config.scenario == "demo"
    assert config.master_seed == 0
    assert config.federation_rounds == 40
    assert config.local_lr_w == 0.05
    assert config.federation_server_alpha_threshold == float("-inf")
    assert config.space_candidates == ("linear8", "identity")


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(MINIMAL + "federation.round = 10\n")
    msg = str(exc.value)
    assert "federation.round" in msg
    assert "federation.rounds" in msg  # nearest valid key


def test_all_violations_reported_not_just_first():
    bad = MINIMAL + "\n".join(
        [
            "federation.clients_per_round = 9",
            "federation.client_pool = 4",
            "local.epochs = 0",
            "data.noise = -2.0",
            "mode = foo",
        ]
    )
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(bad)
    msg = str(exc.value)
    assert "clients_per_round" in msg
    assert "local.epochs" in msg
    assert "data.noise" in msg
    assert "mode must be dfnas or baseline, got 'foo'" in msg


def test_bad_value_and_duplicate_and_syntax():
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text("master_seed = twelve\nmaster_seed = 3\njust a line\n")
    msg = str(exc.value)
    assert "bad value" in msg
    assert "duplicate" in msg
    assert "key = value" in msg


def test_round_trip_parse_serialize_parse():
    config = parse_config_text(MINIMAL + "local.clip_norm = 2.5\nmode = baseline\n"
                               + "space.fixed_path = 0,1\n")
    text = serialize_config(config)
    again = parse_config_text(text)
    assert again == config

    every_field_changed = ExperimentConfig(
        scenario="other", master_seed=11, mode="baseline", output_dir="out/x",
        data_kind="blobs", data_train_samples=123, data_test_samples=45, data_classes=3,
        data_noise=0.25, data_feature_dim=6, data_image_channels=2, data_image_size=6,
        partition_kind="iid", partition_concentration=1.5, partition_resplit_each_round=True,
        space_blocks=2, space_candidates=("linear8", "identity"), space_channels=4,
        space_hidden_width=8, space_fixed_path=(1, 0),
        federation_rounds=3, federation_client_pool=5, federation_clients_per_round=2,
        federation_weighting="uniform", federation_server_alpha_threshold=-0.5,
        federation_workers=2, federation_checkpoints=True,
        local_epochs=3, local_batch_size=16, local_lr_w=0.01, local_lr_alpha=0.02,
        local_momentum_w=0.5, local_clip_norm=2.5,
    )
    for f in fields(ExperimentConfig):
        assert getattr(every_field_changed, f.name) != f.default, f.name
    assert parse_config_text(serialize_config(every_field_changed)) == every_field_changed


def test_round_trip_preserves_infinity_and_none():
    config = ExperimentConfig(
        data_kind="blobs", data_classes=2, data_feature_dim=4,
        space_candidates=("linear8",), space_hidden_width=8, space_blocks=1,
    )
    again = parse_config_text(serialize_config(config))
    assert again.federation_server_alpha_threshold == float("-inf")
    assert again.local_clip_norm is None
    assert again.space_fixed_path is None


@pytest.mark.parametrize("settings, token", [
    ("space.candidates = conv3,IDENTITY", "IDENTITY"),
    ("space.candidates = conv4", "conv4"),
    ("space.candidates = shuffle3g3\nspace.channels = 8", "shuffle3g3"),
    ("space.candidates = linear16", "linear16"),
    ("data.kind = blobs\nspace.candidates = sep3", "sep3"),
    ("space.candidates = conv03", "conv03"),
])
def test_bad_candidate_token_is_reported_at_parse_time(settings, token):
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(settings + "\n")
    msg = str(exc.value)
    assert "space.candidates" in msg
    assert repr(token) in msg


@pytest.mark.parametrize("key", ["space.channels", "space.hidden_width"])
def test_space_widths_must_be_positive(key):
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(f"space.candidates = identity\n{key} = 0\n")
    assert f"{key} must be >= 1" in str(exc.value)


def test_readme_config_block_lists_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config_text(block, source="README.md") == ExperimentConfig()


def test_parse_from_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(MINIMAL, encoding="utf-8")
    assert parse_config(path).scenario == "demo"


def test_baseline_requires_matching_fixed_path():
    assert validate_config(
        parse_config_text(MINIMAL + "mode = baseline\nspace.fixed_path = 0,1\n")
    ) == []
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(MINIMAL + "mode = baseline\n")
    assert "fixed_path" in str(exc.value)
    with pytest.raises(ConfigurationError):
        parse_config_text(MINIMAL + "mode = baseline\nspace.fixed_path = 0,1,0\n")
    with pytest.raises(ConfigurationError):
        parse_config_text(MINIMAL + "mode = baseline\nspace.fixed_path = 0,5\n")


def test_override_validates():
    config = parse_config_text(MINIMAL)
    assert override(config, master_seed=9).master_seed == 9
    with pytest.raises(ConfigurationError):
        override(config, federation_rounds=0)


def test_resplit_only_for_iid():
    with pytest.raises(ConfigurationError):
        parse_config_text(MINIMAL + "partition.resplit_each_round = true\n")
    ok = parse_config_text(
        MINIMAL + "partition.kind = iid\npartition.resplit_each_round = true\n"
    )
    assert ok.partition_resplit_each_round

"""Config file parsing, validation, and round trips."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnas.cli import main
from dfnas.config import (
    _PARSERS,
    KEY_TABLE,
    ExperimentConfig,
    _layer,
    local_config,
    override,
    parse_config,
    parse_config_text,
    serialize_config,
    validate_config,
)
from dfnas.data import DataSpec
from dfnas.errors import ConfigurationError
from dfnas.federation import FederationConfig
from dfnas.local_search import LocalSearchConfig
from dfnas.supernet import SpaceConfig

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
    assert config.local_lr_w == 0.02
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
            "federation.client_pool = 0",
            "federation.workers = 0",
            "local.epochs = 0",
            "local.batch_size = 0",
            "data.noise = -2.0",
            "data.train_samples = 0",
            "partition.kind = striped",
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
    for key in ("federation.client_pool", "federation.workers", "local.batch_size",
                "data.train_samples"):
        assert f"{key} must be >= 1, got 0" in msg
    assert "partition.kind must be iid or dirichlet, got 'striped'" in msg

    with pytest.raises(ConfigurationError) as exc:
        parse_config_text("data.kind = rings\ndata.classes = 1\ndata.feature_dim = 1\n"
                          "space.blocks = 0\n")
    msg = str(exc.value)
    assert "data.classes must be >= 2, got 1" in msg
    assert "data.feature_dim must be >= 2 for rings, got 1" in msg
    assert "space.blocks must be >= 1, got 0" in msg


def test_bad_value_and_duplicate_and_syntax():
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text("master_seed = twelve\nmaster_seed = 3\njust a line\n"
                          "federation.checkpoints = maybe\nspace.candidates = ,\n")
    msg = str(exc.value)
    assert "bad value" in msg
    assert "expected a boolean, got 'maybe'" in msg
    assert "expected a comma-separated list" in msg
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
        partition_kind="iid", partition_concentration=1.5,
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


_NAMES = st.text(alphabet="abz09_-./", max_size=10)


@st.composite
def valid_configs(draw):
    """Any valid config: image or vector data, with candidate tokens that fit it."""
    classes = draw(st.integers(2, 6))
    channels = draw(st.integers(1, 12))
    hidden = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["patches", "blobs", "rings"]))
    if kind == "patches":
        groups = [g for g in range(1, channels + 1) if channels % g == 0]
        plain = ["identity", "conv3", "conv5", "conv7", "sep3", "sep5", "sep7"]
        kernels = st.sampled_from([3, 5, 7])
        shuffle = st.builds("shuffle{}g{}".format, kernels, st.sampled_from(groups))
        token = st.sampled_from(plain) | shuffle
    else:
        token = st.sampled_from(["identity", f"linear{hidden}"])
    candidates = tuple(draw(st.lists(token, min_size=1, max_size=4)))
    blocks = draw(st.integers(1, 5))
    path = st.lists(st.integers(0, len(candidates) - 1), min_size=blocks, max_size=blocks)
    mode = draw(st.sampled_from(["dfnas", "baseline"]))
    fixed_path = draw(path.map(tuple) if mode == "baseline" else st.none() | path.map(tuple))
    pool = draw(st.integers(1, 16))
    positive = st.floats(min_value=0.0, exclude_min=True)
    finite = st.floats(min_value=0.0, allow_infinity=False)
    return ExperimentConfig(
        scenario=draw(_NAMES), master_seed=draw(st.integers(0, 2**63)), mode=mode,
        output_dir=draw(_NAMES),
        data_kind=kind, data_train_samples=draw(st.integers(1, 10**6)),
        data_test_samples=draw(st.integers(1, 10**6)), data_classes=classes,
        data_noise=draw(finite),
        data_feature_dim=draw(st.integers(classes if kind == "blobs" else 2, 64)),
        data_image_channels=draw(st.integers(1, 4)), data_image_size=draw(st.integers(1, 16)),
        partition_kind=draw(st.sampled_from(["iid", "dirichlet"])),
        partition_concentration=draw(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        ),
        space_blocks=blocks, space_candidates=candidates, space_channels=channels,
        space_hidden_width=hidden, space_fixed_path=fixed_path,
        federation_rounds=draw(st.integers(1, 1000)), federation_client_pool=pool,
        federation_clients_per_round=draw(st.integers(1, pool)),
        federation_weighting=draw(st.sampled_from(["uniform", "proportional"])),
        federation_server_alpha_threshold=draw(st.floats(allow_nan=False)),
        federation_workers=draw(st.integers(1, 8)), federation_checkpoints=draw(st.booleans()),
        local_epochs=draw(st.integers(1, 100)), local_batch_size=draw(st.integers(1, 512)),
        local_lr_w=draw(finite), local_lr_alpha=draw(finite),
        local_momentum_w=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        local_clip_norm=draw(st.none() | positive),
    )


@settings(max_examples=300, deadline=None)
@given(valid_configs())
def test_any_valid_config_round_trips(config):
    assert validate_config(config) == []
    assert parse_config_text(serialize_config(config)) == config


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["scenario", "output_dir"]), st.text())
def test_free_text_key_is_rejected_or_round_trips(key, text):
    config = replace(parse_config_text(MINIMAL), **{key: text})
    problems = validate_config(config)
    if problems:
        assert any(p.startswith(f"{key} ") for p in problems), problems
    else:
        assert parse_config_text(serialize_config(config)) == config


def test_bad_mode_override_exits_2_with_the_config_file_message(tmp_path, capsys):
    message = "mode must be dfnas or baseline, got 'foo'"
    with pytest.raises(ConfigurationError, match=message):
        parse_config_text(MINIMAL + "mode = foo\n")
    path = tmp_path / "run.conf"
    path.write_text(MINIMAL, encoding="utf-8")
    assert main(["run", str(path), "--mode", "foo"]) == 2
    assert message in capsys.readouterr().err


def test_out_override_that_would_not_round_trip_exits_2(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text(MINIMAL + "federation.rounds = 1\ndata.train_samples = 64\n", encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "runs" / "#1")]) == 2
    assert "output_dir must not hold '#'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_round_trip_preserves_infinity_and_none():
    config = ExperimentConfig(
        data_kind="blobs", data_classes=2, data_feature_dim=4,
        space_candidates=("linear8",), space_hidden_width=8, space_blocks=1,
        local_clip_norm=None,
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


@pytest.mark.parametrize("key", [
    "data.noise", "local.lr_w", "local.lr_alpha", "partition.concentration",
])
def test_inf_is_rejected_where_it_breaks_the_run(key, tmp_path, capsys):
    with pytest.raises(ConfigurationError, match=f"{key} must be finite"):
        parse_config_text(f"{key} = inf\n")
    path = tmp_path / "inf.conf"
    path.write_text(f"{key} = inf\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "data.image_size = 0", "data.image_size = -3", "data.image_channels = 0",
])
def test_image_shape_keys_must_be_positive(setting, tmp_path, capsys):
    key = setting.split(" ")[0]
    with pytest.raises(ConfigurationError, match=f"{key} must be >= 1"):
        parse_config_text(setting + "\n")
    path = tmp_path / "shape.conf"
    path.write_text(setting + "\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert f"{key} must be >= 1" in capsys.readouterr().err


FLOAT_KEYS = [
    key for key, (_, parser) in KEY_TABLE.items()
    if parser in (_PARSERS["float"], _PARSERS["float | None"])
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_is_rejected_for_every_float_key(key, tmp_path, capsys):
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(f"{key} = nan\n")
    assert f"line 1: bad value for {key!r}" in str(exc.value)
    path = tmp_path / "nan.conf"
    path.write_text(f"{key} = nan\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_layer_field_with_no_key_and_no_derived_value_fails():
    @dataclass(frozen=True)
    class Extended(LocalSearchConfig):
        unkeyed: int = 0

    with pytest.raises(AttributeError, match="local_unkeyed"):
        _layer(Extended, ExperimentConfig(), "local")
    assert _layer(Extended, ExperimentConfig(), "local", unkeyed=1)


@pytest.mark.parametrize("section, layer", [
    ("data", DataSpec), ("space", SpaceConfig), ("federation", FederationConfig),
    ("local", LocalSearchConfig),
])
def test_each_keyed_layer_default_is_the_experiment_default(section, layer):
    keyed = {
        f.name: f.default for f in fields(layer)
        if f.default is not MISSING and f"{section}.{f.name}" in KEY_TABLE
    }
    assert keyed
    assert keyed == {x: getattr(ExperimentConfig(), f"{section}_{x}") for x in keyed}


def test_default_experiment_trains_with_the_default_recipe():
    assert local_config(ExperimentConfig()) == LocalSearchConfig()
    assert ExperimentConfig().master_seed == FederationConfig.master_seed


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

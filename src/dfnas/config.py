"""Experiment configuration: flat key=value files with dotted section prefixes.

The fields of `ExperimentConfig` are the single source: each field is one key
(a section prefix becomes `section.key`), parsed by the type of the field.
Every key has a documented default; parsing validates the whole file and
reports every violation, not just the first, and a float key rejects NaN.
`serialize_config` writes a file that parses back to an equal config.

`data_specs`, `space_config`, `federation_config` and `local_config` build the
inputs of each layer by one rule: key `section.x` is field `x` of that
section's layer config. Only the values no key holds (sample counts, the class
count, the input shape, the init seed, the baseline's path and the net's
float32 dtype) are named there.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, fields, replace

from .data import DataSpec
from .errors import ConfigurationError, read_input_text
from .federation import FederationConfig
from .local_search import LocalSearchConfig
from .seeds import derive_seed
from .supernet import SpaceConfig


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "experiment"
    master_seed: int = 0
    mode: str = "dfnas"  # dfnas | baseline
    output_dir: str = ""  # default: runs/<scenario>

    data_kind: str = "patches"  # blobs | rings | patches
    data_train_samples: int = 4000
    data_test_samples: int = 1000
    data_classes: int = 4
    data_noise: float = 0.1
    data_feature_dim: int = 8
    data_image_channels: int = 1
    data_image_size: int = 8

    partition_kind: str = "dirichlet"  # iid | dirichlet
    partition_concentration: float = 0.5

    space_blocks: int = 4
    space_candidates: tuple[str, ...] = ("conv3", "conv5", "identity")
    space_channels: int = 8
    space_hidden_width: int = 16
    space_fixed_path: tuple[int, ...] | None = None

    federation_rounds: int = 40
    federation_client_pool: int = 4
    federation_clients_per_round: int = 4
    federation_weighting: str = "proportional"  # uniform | proportional
    federation_server_alpha_threshold: float = float("-inf")
    federation_workers: int = 1
    federation_checkpoints: bool = False

    local_epochs: int = 2
    local_batch_size: int = 32
    # at lr_w 0.05 or with no clip, the default scenario diverges or stays at chance
    local_lr_w: float = 0.02
    local_lr_alpha: float = 0.003
    local_momentum_w: float = 0.9
    local_clip_norm: float | None = 5.0

    def resolved_output_dir(self) -> str:
        return self.output_dir or f"runs/{self.scenario}"


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_tokens(text: str) -> tuple[str, ...]:
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    if not tokens:
        raise ValueError("expected a comma-separated list")
    return tokens


def _parse_path(text: str) -> tuple[int, ...] | None:
    if not text.strip():
        return None
    return tuple(int(t.strip()) for t in text.split(","))


def _parse_float(text: str) -> float:
    value = float(text)
    if value != value:
        raise ValueError("NaN is not a valid value")
    return value


def _parse_optional_float(text: str) -> float | None:
    if not text.strip() or text.strip().lower() == "none":
        return None
    return _parse_float(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_SECTIONS = ("data", "partition", "space", "federation", "local")

# annotation of an ExperimentConfig field -> parser of its value in the file
_PARSERS = {
    "str": str,
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[str, ...]": _parse_tokens,
    "tuple[int, ...] | None": _parse_path,
    "float | None": _parse_optional_float,
}


def _file_key(attr: str) -> str:
    """`federation_rounds` is written `federation.rounds`; other names as is."""
    section, _, name = attr.partition("_")
    return f"{section}.{name}" if section in _SECTIONS else attr


# key in the file -> (attribute, parser), one entry per ExperimentConfig field
KEY_TABLE: dict[str, tuple[str, object]] = {
    _file_key(f.name): (f.name, _PARSERS[f.type]) for f in fields(ExperimentConfig)
}


def _layer(cls, config: ExperimentConfig, section: str, **derived):
    """`cls` with each field `x` not in `derived` read from key `section.x`.

    A field with neither a key nor a derived value raises, on every call.
    """
    keyed = (f.name for f in fields(cls) if f.name not in derived)
    return cls(**derived, **{x: getattr(config, f"{section}_{x}") for x in keyed})


def data_specs(config: ExperimentConfig) -> tuple[DataSpec, DataSpec]:
    """The client training pool's spec and the server-held test set's."""
    return tuple(
        _layer(DataSpec, config, "data", n_samples=n, num_classes=config.data_classes)
        for n in (config.data_train_samples, config.data_test_samples)
    )


def space_config(config: ExperimentConfig, fixed_path: tuple[int, ...] | None = None) -> SpaceConfig:
    if config.data_kind == "patches":
        input_shape: tuple[int, ...] = (
            config.data_image_channels, config.data_image_size, config.data_image_size,
        )
    else:
        input_shape = (config.data_feature_dim,)
    if fixed_path is None and config.mode == "baseline":
        fixed_path = config.space_fixed_path
    return _layer(
        SpaceConfig, config, "space", input_shape=input_shape, num_classes=config.data_classes,
        init_seed=derive_seed(config.master_seed, "init"), fixed_path=fixed_path,
        dtype="float32",
    )


def federation_config(config: ExperimentConfig) -> FederationConfig:
    return _layer(FederationConfig, config, "federation", master_seed=config.master_seed)


def local_config(config: ExperimentConfig) -> LocalSearchConfig:
    return _layer(LocalSearchConfig, config, "local")


def validate_config(config: ExperimentConfig) -> list[str]:
    """Every violation in one pass, each under its file key; empty means valid.

    Each layer states its own rules (`problems()`); the rules here are the
    ones no layer owns.
    """
    classes = {"num_classes": "data.classes"}  # layer field -> file key, where they differ
    train, test = data_specs(config)
    layers = (
        ("data", train, {**classes, "n_samples": "data.train_samples"}),
        ("data", test, {**classes, "n_samples": "data.test_samples"}),
        ("space", space_config(config), classes),
        ("federation", federation_config(config), {}),
        ("local", local_config(config), {}),
    )
    problems: list[str] = []
    for section, layer, keys in layers:
        for name, complaint in layer.problems():
            key = keys.get(name, f"{section}.{name}")
            problems.append(f"{key if key in KEY_TABLE else name} {complaint}")
    if config.partition_kind not in ("iid", "dirichlet"):
        problems.append(f"partition.kind must be iid or dirichlet, got {config.partition_kind!r}")
    concentration = config.partition_concentration
    if config.partition_kind == "dirichlet" and not 0 < concentration < math.inf:
        problems.append(f"partition.concentration must be finite and > 0, got {concentration}")
    for key in ("scenario", "output_dir"):  # free text: `config.used` must parse back to it
        text = getattr(config, key)
        if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
            problems.append(f"{key} must not hold '#' or a line break, nor start or end "
                            f"with whitespace, got {text!r}")
    if config.mode not in ("dfnas", "baseline"):
        problems.append(f"mode must be dfnas or baseline, got {config.mode!r}")
    if config.mode == "baseline" and config.space_fixed_path is None:
        problems.append("baseline mode requires space.fixed_path")
    return list(dict.fromkeys(problems))  # the data specs and the space share rules


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    problems: list[str] = []
    values: dict[str, object] = {}
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_TABLE:
            hint = difflib.get_close_matches(key, KEY_TABLE, n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            problems.append(f"line {line_no}: unknown key {key!r}{suffix}")
            continue
        if key in seen:
            problems.append(f"line {line_no}: duplicate key {key!r}")
            continue
        seen.add(key)
        attr, parser = KEY_TABLE[key]
        try:
            values[attr] = parser(value)
        except ValueError as err:
            problems.append(f"line {line_no}: bad value for {key!r}: {err}")
    if problems:
        raise ConfigurationError(
            f"{source}: {len(problems)} problem(s):\n  " + "\n  ".join(problems)
        )
    config = ExperimentConfig(**values)
    problems = validate_config(config)
    if problems:
        raise ConfigurationError(
            f"{source}: {len(problems)} problem(s):\n  " + "\n  ".join(problems)
        )
    return config


def parse_config(path) -> ExperimentConfig:
    return parse_config_text(read_input_text(path, ConfigurationError), source=str(path))


def serialize_config(config: ExperimentConfig) -> str:
    lines = []
    for key, (attr, _) in KEY_TABLE.items():
        lines.append(f"{key} = {_fmt(getattr(config, attr))}")
    return "\n".join(lines) + "\n"


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    updated = replace(config, **changes)
    problems = validate_config(updated)
    if problems:
        raise ConfigurationError("invalid override:\n  " + "\n  ".join(problems))
    return updated

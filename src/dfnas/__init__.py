"""Desk-scale direct federated neural architecture search simulator.

Clients run single-path differentiable architecture search on private data
shards; a server aggregates both network weights and architecture parameters
each round and finally derives a ready-to-deploy child network.
"""

from .blob import ParameterBlob
from .config import ExperimentConfig, parse_config, serialize_config
from .data import (
    DataSpec,
    Dataset,
    Partition,
    dirichlet_split,
    generate_synthetic,
    iid_split,
)
from .federation import (
    FederationConfig,
    FederationResult,
    RoundRecord,
    aggregate,
    evaluate,
    run_federated_search,
    select_clients,
)
from .local_search import LocalSearchConfig, LocalSearchReport, client_local_search
from .seeds import derive_seed, stream
from .supernet import (
    ChoiceEdge,
    SpaceConfig,
    Supernet,
    alpha_gradient,
    build_supernet,
    derive_child,
    describe_child,
    flatten_params,
    forward_path,
    mask_gradient,
    prune_edges,
    sample_path,
    unflatten_params,
)
from .tensor import SGD, Tape, Tensor

__version__ = "0.1.0"

__all__ = [
    "ChoiceEdge", "DataSpec", "Dataset", "ExperimentConfig", "FederationConfig",
    "FederationResult", "LocalSearchConfig", "LocalSearchReport", "ParameterBlob",
    "Partition", "RoundRecord", "SGD", "SpaceConfig", "Supernet", "Tape", "Tensor",
    "aggregate", "alpha_gradient", "build_supernet", "client_local_search",
    "derive_child", "derive_seed", "describe_child", "dirichlet_split", "evaluate",
    "flatten_params", "forward_path", "generate_synthetic", "iid_split",
    "mask_gradient", "parse_config", "prune_edges", "run_federated_search",
    "sample_path", "select_clients", "serialize_config", "stream", "unflatten_params",
]

"""One client searching on its private shard.

On concentric rings the identity/identity path is purely affine and cannot
fit the data, so the architecture update should learn to prefer the dense
candidate on both blocks.
"""

import numpy as np

from dfnas.data import DataSpec, generate_synthetic
from dfnas.federation import evaluate
from dfnas.local_search import LocalSearchConfig, client_local_search
from dfnas.supernet import SpaceConfig, build_supernet, derive_child, flatten_params, unflatten_params

shard = generate_synthetic(
    DataSpec(kind="rings", n_samples=256, num_classes=2, noise=0.05, feature_dim=2),
    np.random.default_rng(10),
)
space = SpaceConfig(
    blocks=2,
    candidates=("identity", "linear8"),
    input_shape=(2,),
    num_classes=2,
    hidden_width=8,
    init_seed=0,
)
net = build_supernet(space)
config = LocalSearchConfig(
    epochs=30, batch_size=16, lr_w=0.05, lr_alpha=0.02, momentum_w=0.9
)
print(f"shard: {len(shard)} samples, 2 rings; space: identity vs linear8 on 2 blocks")
report = client_local_search(flatten_params(net), shard, space, config, seed=0)

print("\nepoch loss trajectory (every 5th):")
for e in range(0, len(report.epoch_losses), 5):
    print(f"  epoch {e:2d}: {report.epoch_losses[e]:.4f}")
print(f"batches: {report.batches}, candidate executions: {report.candidate_executions}")

unflatten_params(net, report.blob)
print("\nfinal architecture parameters:")
for i, edge in enumerate(net.edges):
    print(f"  block {i}: alpha = {edge.alpha.round(3).tolist()} (identity, linear8)")

child = derive_child(net)
acc, _ = evaluate(child, shard)
print(f"\nderived child: {' -> '.join(child.kinds)}; train accuracy {acc:.3f}")

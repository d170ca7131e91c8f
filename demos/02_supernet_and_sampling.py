"""The searchable parent network: probabilities, single-path sampling,
pruning, and child derivation."""

import numpy as np

from dfnas.supernet import (
    SpaceConfig,
    build_supernet,
    derive_child,
    forward_path,
    mask_gradient,
    prune_edges,
    sample_path,
)
from dfnas.tensor import Tensor

space = SpaceConfig(
    blocks=3,
    candidates=("conv3", "conv5", "identity", "sep3"),
    input_shape=(1, 8, 8),
    num_classes=4,
    channels=4,
    init_seed=0,
)
net = build_supernet(space)
print(f"search space: {net.cardinality()} architectures "
      f"({len(space.candidates)}^{space.blocks})")

print("\n== probabilities follow softmax(alpha) ==")
net.edges[0].alpha[:] = [1.0, 0.0, -1.0, 0.5]
print("alpha:", net.edges[0].alpha.tolist())
print("probs:", net.edges[0].probabilities().round(4).tolist())

print("\n== sampled paths, 2000 draws on block 0 ==")
rng = np.random.default_rng(1)
counts = np.zeros(4)
for _ in range(2000):
    counts[sample_path(net, rng)[0]] += 1
print("empirical:", (counts / 2000).round(4).tolist())

print("\n== one training step executes exactly one candidate per block ==")
feats = Tensor(np.random.default_rng(2).normal(size=(8, 1, 8, 8)))
labels = np.random.default_rng(3).integers(0, 4, size=8)
selections = sample_path(net, rng)
loss, tape, outputs = forward_path(net, selections, feats, labels)
tape.backward(loss)
print(f"sampled path {selections}, loss {loss.item():.4f}")
print(f"candidate executions: {net.candidate_executions} (== blocks)")
print(f"mask gradients: {[round(mask_gradient(out), 4) for out in outputs]}")

print("\n== pruning and the derived child ==")
for edge in net.edges:
    edge.alpha[:] = np.random.default_rng(4).normal(size=4)
pruned = prune_edges(net, alpha_threshold=0.0)
print(f"pruned {pruned} candidates below threshold 0.0; "
      f"{net.cardinality()} architectures remain")
child = derive_child(net)
n_params = sum(t.size for t in child.parameters())
print("child:", " -> ".join(child.kinds), f"({n_params} params)")
print(f"the child is a fixed-path supernet: fixed_path = {child.space.fixed_path}, "
      f"{child.cardinality()} architecture")

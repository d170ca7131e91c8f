"""The benchmark's workloads: one generated experiment config per (name, seed).

Each workload is a closed batch job at a stated input size on at most two
threads. The seed becomes the config's `master_seed`, which drives the data,
the partition, the initial weights and every client's sampling; the program
sees nothing but the config. `tiny=True` shrinks a workload for smoke tests
(and drops its accuracy floor, since a few samples learn little).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from dfnas.config import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "federated" or "ranking"
    acc_floor: float  # final (or best-path) test accuracy must reach this
    nominal_s: float  # one search on a 2-core x86 machine; sets repeats per run
    base: ExperimentConfig
    tiny: dict
    rank_epochs: int = 1

    def config(self, seed: int, tiny: bool = False) -> ExperimentConfig:
        cfg = replace(self.base, master_seed=seed, scenario=self.name)
        return replace(cfg, **self.tiny) if tiny else cfg

    def floor(self, tiny: bool) -> float:
        return 0.0 if tiny else self.acc_floor


# The criterion-7 desk-scale scenario (8x8 patches, 4 classes, Dirichlet 0.5);
# each workload below sets its own round count.
C7 = ExperimentConfig(
    data_kind="patches", data_train_samples=4000, data_test_samples=1000, data_classes=4,
    data_noise=0.1, data_image_size=8, data_image_channels=1,
    partition_kind="dirichlet", partition_concentration=0.5,
    space_blocks=4, space_candidates=("conv3", "conv5", "identity"), space_channels=4,
    federation_rounds=40, federation_client_pool=4, federation_clients_per_round=4,
    federation_weighting="proportional", federation_workers=1,
    local_epochs=2, local_batch_size=32, local_lr_w=0.02, local_lr_alpha=0.003,
    local_momentum_w=0.9,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c7-serial",
            why="criterion-7 desk scale on one worker; dense k3/k5 conv2d forward and "
                "backward dominate, blob/aggregation/build are under 1%",
            kind="federated",
            acc_floor=0.60,
            nominal_s=10.5,
            # Without a clip, criterion 7's optimizer leaves some seeds at chance
            # (seeds 17 and 20 read 0.25 after 5 rounds) or collapses them back
            # to chance (seed 11, round 7). Clipping at norm 5 trains seeds
            # 11-25 and 101-110 to 0.97 or more within 8 rounds; seed 210
            # sits at 0.75 from round 4 to 8 and passes 0.95 in round 9, hence
            # a floor that only rules out chance-level learning. Five rounds
            # keep three searches in one run (their per-round medians steady
            # round_s.tail); after round 5, seeds 3, 7, 17, 20, 31, 42, 55, 77,
            # 90, 123, 404 and 999 read between 0.758 (seed 20) and 1.0.
            base=replace(C7, federation_rounds=5, local_clip_norm=5.0),
            tiny=dict(data_train_samples=256, data_test_samples=128, federation_rounds=2,
                      local_epochs=1),
        ),
        Workload(
            name="grouped-parallel",
            why="depthwise and grouped 1x1 conv2d paths, channel_shuffle, gradient "
                "clipping and two dispatch threads over heavy clients",
            kind="federated",
            acc_floor=0.75,
            nominal_s=31.0,
            # Criterion 7's lr_w 0.02 with momentum 0.9 and no clip overflows
            # conv2d in round 0 or 1 on this space (ClientFailure wrapping a
            # NumericalError, seeds 1 and 3), so the workload clips. At clip 5
            # the final accuracy still swings between 0.76 and 1.0 across
            # seeds; at clip 2, lr_w 0.05 reaches 0.92 or more in 20 rounds.
            # Thirty rounds give round_s.tail a real percentile (p66, ten
            # rounds beyond it) instead of the maximum of one search.
            base=replace(
                C7, partition_kind="iid",
                space_candidates=("sep3", "shuffle3g2", "conv3", "identity"),
                space_channels=8, federation_rounds=30, federation_client_pool=8,
                federation_clients_per_round=4, federation_workers=2, local_epochs=1,
                local_lr_w=0.05, local_clip_norm=2.0,
            ),
            tiny=dict(data_train_samples=256, data_test_samples=128, federation_rounds=2),
        ),
        Workload(
            name="fanout-vector",
            why="no conv2d; 32 light clients per round make blob encode/decode, "
                "supernet rebuilds and aggregation dominate",
            kind="federated",
            acc_floor=0.80,
            nominal_s=4.5,
            base=replace(
                C7, data_kind="blobs", data_train_samples=2048, data_feature_dim=8,
                data_noise=1.0, partition_kind="iid",
                space_candidates=("linear128", "identity"), space_hidden_width=128,
                space_blocks=4, federation_rounds=20, federation_client_pool=32,
                federation_clients_per_round=32, federation_workers=2, local_epochs=1,
                local_lr_w=0.05,
            ),
            tiny=dict(data_train_samples=256, data_test_samples=128, federation_rounds=2,
                      federation_client_pool=8, federation_clients_per_round=8),
        ),
        Workload(
            name="rank-sweep",
            why="exhaustive fixed-path ranking (27 paths, 1 epoch, cache off): "
                "weights-only blobs, one build and one evaluation per path",
            kind="ranking",
            acc_floor=0.90,
            nominal_s=20.0,
            base=replace(C7, space_blocks=3),
            tiny=dict(data_train_samples=256, data_test_samples=128, space_blocks=2),
        ),
    )
}

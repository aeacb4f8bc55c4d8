"""DosCond-style one-step gradient matching (Jin et al., KDD 2022 [31]).

The paper's related work highlights DosCond as a faster condensation
variant: instead of tracking a relay GNN's trajectory over ``T`` inner
steps, it matches gradients only at freshly initialized parameters (a
single matching step per sampled initialization).  We implement it as an
extension on top of :class:`~repro.condense.gcond.GCondReducer`: every
matching step re-draws ``theta_0 ~ P_theta`` and there are no relay
updates.

This reducer is not part of the paper's main comparison; it exists for
the ablation benchmarks (how much does trajectory matching matter at
condensation time?) and as a cheaper default for very large sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.condense.gcond import GCondConfig, GCondReducer

__all__ = ["DosCondConfig", "DosCondReducer"]


@dataclass
class DosCondConfig(GCondConfig):
    """One-step matching configuration.

    ``relay_steps`` is forced to zero: DosCond never trains the relay, so
    every gradient comparison happens at initialization.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.relay_steps = 0


class DosCondReducer(GCondReducer):
    """One-step gradient matching: re-draw ``theta_0`` at every step."""

    name = "doscond"

    def __init__(self, config: DosCondConfig | None = None) -> None:
        super().__init__(config or DosCondConfig())
        self._reinit_rng = np.random.default_rng(self.config.seed ^ 0xD05C)

    def _matching_step(self, relay, propagated, graph, labeled,
                       synthetic_features, adjacency_model, labels_syn,
                       feature_opt, adjacency_opt) -> None:
        relay.reinit(int(self._reinit_rng.integers(1 << 31)))
        super()._matching_step(relay, propagated, graph, labeled,
                               synthetic_features, adjacency_model,
                               labels_syn, feature_opt, adjacency_opt)

    def _relay_step(self, relay, synthetic_features, adjacency_model,
                    labels_syn) -> None:
        """DosCond performs no inner relay training."""
        return None


def doscond_factory(seed: int = 0, **cfg) -> DosCondReducer:
    """Build a :class:`DosCondReducer` from flat kwargs."""
    return DosCondReducer(DosCondConfig(seed=seed, **cfg))

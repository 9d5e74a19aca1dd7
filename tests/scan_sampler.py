"""Linear inverse-CDF scan: the differential oracle for the agent-pair sampler.

Trivially correct — O(1) updates, O(P) draws — and following the canonical
draw contract of :mod:`repro.engine.samplers` (one uniform per draw, the
cumulative-weight interval containing ``u * total`` in insertion order), so
over the explicit table of ordered agent pairs it must map a random stream
to exactly the pair sequence
:class:`~repro.engine.samplers.AgentPairSampler` produces.
"""

import random
from typing import Dict, Hashable, Optional

from repro.engine.errors import ConfigurationError
from repro.engine.samplers import WeightedSampler


def _checked(weight: int) -> int:
    if weight < 0:
        raise ConfigurationError("sampler weights must be non-negative")
    return weight


class ScanSampler(WeightedSampler):
    """O(1) update, O(P) draw over a ``{key: weight}`` dict."""

    strategy = "scan"

    def __init__(self, weights: Optional[Dict[Hashable, int]] = None) -> None:
        super().__init__()
        self._weights: Dict[Hashable, int] = {}
        self._total = 0
        if weights:
            self.rebuild(weights)
            self.rebuilds = 0  # construction is not churn

    @property
    def total(self) -> int:
        return self._total

    def weights(self) -> Dict[Hashable, int]:
        return dict(self._weights)

    def update(self, key: Hashable, weight: int) -> None:
        _checked(weight)
        self.updates += 1
        old = self._weights.pop(key, 0)
        if weight:
            self._weights[key] = weight
        self._total += weight - old

    def rebuild(self, weights: Dict[Hashable, int]) -> None:
        self.rebuilds += 1
        self._weights = {key: _checked(weight) for key, weight in weights.items() if weight}
        self._total = sum(self._weights.values())

    def sample(self, rng: random.Random) -> Hashable:
        self._require_positive_total()
        self.draws += 1
        # The float corner where u * total rounds up to total falls through
        # to the last key.
        target = rng.random() * self._total
        chosen: Hashable = None
        for key, weight in self._weights.items():
            target -= weight
            chosen = key
            if target < 0:
                break
        return chosen

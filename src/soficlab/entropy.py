"""Shannon entropy and letter-exact entropy curves.

Everything is reported per-n as curves in nats; the package never claims a
limit. Empty good-model sets carry the -inf sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .models import letter_frequency_count
from .processes import MarginalOracle, validate_weights


def shannon_entropy(weights: Sequence[float]) -> float:
    """-sum p log p in nats, with 0 log 0 = 0, of weights that pass
    `validate_weights` (taken as given, not renormalized)."""
    validate_weights(weights)
    w = np.asarray(weights, dtype=np.float64)
    pos = w[w > 0]
    return float(-(pos * np.log(pos)).sum())


@dataclass
class EntropyRow:
    n: int
    value: float  # log |Omega| / n in nats; -inf when the good-model set is empty


@dataclass
class EntropyCurve:
    alphabet_size: int
    rows: List[EntropyRow] = field(default_factory=list)

    def append(self, row: EntropyRow) -> None:
        if row.value > math.log(self.alphabet_size) + 1e-9:
            raise ValueError("normalized entropy exceeds log |X|")
        self.rows.append(row)


def entropy_curve(mu: MarginalOracle, eps: float, sizes: Sequence[int]) -> EntropyCurve:
    """Normalized log |Omega({e}, eps, sigma)| over n vertices for each n,
    counted exactly by letter type from mu's one-letter marginal: at F = {e}
    the count is the same for every sofic map on n vertices."""
    curve = EntropyCurve(mu.alphabet.size)
    for n in sizes:
        got = letter_frequency_count(mu.one_dim(), n, eps)
        curve.append(EntropyRow(n, got.log_count_nats / n))
    return curve


__all__ = [
    "EntropyRow",
    "EntropyCurve",
    "shannon_entropy",
    "entropy_curve",
]

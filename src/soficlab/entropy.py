"""Entropy estimates assembled from counting and covering primitives.

Everything is reported per-n as curves in nats; the package never claims a
limit. Empty good-model sets carry the -inf sentinel (serialized "-inf").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .groups import Window
from .models import (
    ENUM_BUDGET,
    GoodModelCount,
    count_good_models_mc,
    enumerate_good_models,
    letter_frequency_count,
)
from .processes import MarginalOracle
from .sofic import SoficMap

METHODS = ("exhaustive", "mc", "letter-exact")


def shannon_entropy(weights: Sequence[float]) -> float:
    """-sum p log p in nats, with 0 log 0 = 0."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    pos = w[w > 0]
    return float(-(pos * np.log(pos)).sum())


@dataclass
class EntropyRow:
    n: int
    vertices: int
    window_radius: int
    eps: float
    log_count: float  # nats; -inf when the good-model set is empty
    value: float  # log_count / vertices
    method: str
    standard_error: Optional[float] = None

    def to_json(self) -> dict:
        def enc(x: float):
            return x if math.isfinite(x) else "-inf"

        out = {
            "n": self.n,
            "vertices": self.vertices,
            "F_radius": self.window_radius,
            "epsilon": self.eps,
            "log_count_nats": enc(self.log_count),
            "normalized_nats": enc(self.value),
            "method": self.method,
        }
        if self.standard_error is not None:
            out["standard_error"] = self.standard_error
        return out


@dataclass
class EntropyCurve:
    alphabet_size: int
    rows: List[EntropyRow] = field(default_factory=list)

    def append(self, row: EntropyRow) -> None:
        if row.value > math.log(self.alphabet_size) + 1e-9:
            raise ValueError("normalized entropy exceeds log |X|")
        self.rows.append(row)

    def values(self) -> List[float]:
        return [r.value for r in self.rows]

    def to_json(self) -> dict:
        return {"alphabet": self.alphabet_size, "rows": [r.to_json() for r in self.rows]}

    CSV_HEADER = "n,vertices,F_radius,epsilon,log_count_nats,normalized_nats,method,standard_error"

    def csv_lines(self) -> List[str]:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            se = "" if r.standard_error is None else repr(r.standard_error)
            lines.append(
                f"{r.n},{r.vertices},{r.window_radius},{r.eps!r},{r.log_count!r},{r.value!r},{r.method},{se}"
            )
        return lines


def _count_for(
    sigma: SoficMap,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    method: str,
    budget: int,
    samples: int,
    seed: int,
    proposal: Optional[Sequence[float]],
) -> GoodModelCount:
    if method == "exhaustive":
        return enumerate_good_models(sigma, mu, window, eps, budget=budget, keep_configs=False)
    if method == "mc":
        prop = proposal if proposal is not None else np.full(mu.alphabet.size, 1.0 / mu.alphabet.size)
        return count_good_models_mc(sigma, mu, window, eps, prop, samples, seed)
    if method == "letter-exact":
        if len(window) != 1:
            raise ValueError("letter-exact counting requires F = {e}")
        return letter_frequency_count(mu.one_dim(), sigma.n, eps)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def entropy_curve(
    approx_family: Callable[[int], SoficMap],
    mu: MarginalOracle,
    radius: int,
    eps: float,
    sizes: Sequence[int],
    method: str = "exhaustive",
    budget: int = ENUM_BUDGET,
    samples: int = 20000,
    seed: int = 0,
    proposal: Optional[Sequence[float]] = None,
) -> EntropyCurve:
    """Normalized log |Omega(F, eps, sigma_n)| for each n, F the radius ball."""
    curve = EntropyCurve(mu.alphabet.size)
    for n in sizes:
        sigma = approx_family(n)
        window = Window(sigma.group, sigma.group.ball(radius))
        got = _count_for(sigma, mu, window, eps, method, budget, samples, seed, proposal)
        value = got.log_count_nats / sigma.n if math.isfinite(got.log_count_nats) else float("-inf")
        se = None if got.standard_error is None else got.standard_error
        curve.append(EntropyRow(n, sigma.n, radius, eps, got.log_count_nats, value, method, se))
    return curve


__all__ = [
    "EntropyRow",
    "EntropyCurve",
    "shannon_entropy",
    "entropy_curve",
    "METHODS",
]

"""Finite-n diagnostics for local weak*, quenched, and doubly-quenched
convergence of measures on model spaces, plus the distribution-on-measures
statistics (dispersion, barycentre) and the vertex-pair statistic.

All "with high probability" statements are reported as exact fractions; the
experiment layer applies pass thresholds. Sampling is fully determined by the
seed. Per-vertex and per-pair pattern laws index patterns as the process
marginals do, through `processes._pattern_codes` and `decode_patterns`; on
an explicit support each is histogrammed by one offset bincount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .covering import ModelMeasure, pair_configs
from .groups import Element, Window
from .models import adjoint_shift, counts_over_elements, good_mask
from .processes import MarginalOracle, _pattern_codes, decode_patterns, pattern_count, product_process, tv_distance
from .randomness import stream
from .sofic import SoficMap

EXACT_SUPPORT_CAP = 100_000


def _atoms_of(nu: ModelMeasure, samples: int, seed: int, label: str) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Explicit (configs, weights, drawn) view of a measure: its support when
    explicit with at most EXACT_SUPPORT_CAP atoms, else (an iid measure or a
    larger support) a seeded block of `samples` draws with equal weights
    (drawn True), so a defect computed from it is the defect of the empirical
    measure of those draws. `lw_defect` reads iid measures exactly and never
    comes here for them."""
    if nu.explicit and nu.support.shape[0] <= EXACT_SUPPORT_CAP:
        return nu.support, nu.weights, False
    if samples < 1:
        raise ValueError("a measure without a small explicit support needs a positive sample count")
    block = nu.sample(stream(seed, label), samples)
    return block, np.full(samples, 1.0 / samples), True


def _bad_mass(good: np.ndarray, weights: Optional[np.ndarray]) -> float:
    """Weight of the atoms that fail the test. Equally weighted draws
    (weights None) are counted and divided once, since a sum of `samples`
    copies of 1/samples can exceed 1."""
    if weights is None:
        return int((~good).sum()) / good.size
    return float(weights[~good].sum())


def _iid_vertex_laws(perms: np.ndarray, site_weights: np.ndarray, base: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact F-pattern law at every vertex under an iid measure.

    The law at v depends only on which window elements send v to the same
    vertex (the coincidences in column v of `perms`), so vertices are grouped
    by that partition and each group's law is built once. Returns the laws,
    one row per group, and the group of every vertex.
    """
    # first[i, v]: the smallest window index whose image of v is that of index i
    first = np.argmax(perms[:, None, :] == perms[None, :, :], axis=1)
    keys, group = np.unique(first.T, axis=0, return_inverse=True)
    laws = np.empty((keys.shape[0], pattern_count(base, perms.shape[0])))
    for g, key in enumerate(keys):
        free = np.unique(key)
        assign = decode_patterns(base, free.size)
        codes = _pattern_codes(assign.T, np.searchsorted(free, key), base)
        probs = np.prod(site_weights[assign], axis=1)
        laws[g] = np.bincount(codes, weights=probs, minlength=laws.shape[1])
    return laws, np.asarray(group).reshape(-1)


def lw_defect(
    sigma: SoficMap,
    nu: ModelMeasure,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    samples: int = 0,
    seed: int = 0,
) -> float:
    """Fraction of vertices whose local pushforward marginal is >= eps away
    from mu_F in total variation.

    Exact for iid measures (`ModelMeasure.iid`), which ignore `samples` and
    `seed`, and for explicit supports of at most EXACT_SUPPORT_CAP atoms. For
    a larger support it is the lw defect of the empirical measure of
    `samples` seeded draws.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = mu.alphabet.size
    target = mu.marginal_elems(window.elements)
    n = sigma.n
    if nu.site_weights is not None:
        if nu.site_weights.size != base:
            raise ValueError("iid site weights must match the alphabet")
        laws, group = _iid_vertex_laws(sigma.window_perms(window), nu.site_weights, base)
        laws = laws[group]
    else:
        npat = pattern_count(base, len(window))
        configs, weights, _ = _atoms_of(nu, samples, seed, "lw")
        codes = _pattern_codes(np.ascontiguousarray(configs.T), sigma.window_perms(window), base)
        flat = (np.arange(0, n * npat, npat)[:, None] + codes).ravel()
        laws = np.bincount(flat, weights=np.tile(weights, n), minlength=n * npat).reshape(n, npat)
    return float((tv_distance(laws, target) >= eps).mean())


def quenched_defect(
    sigma: SoficMap,
    nu: ModelMeasure,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    samples: int = 0,
    seed: int = 0,
) -> float:
    """1 - nu(Omega_mu(F, eps, sigma)): exact on explicit supports, Monte
    Carlo otherwise."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    configs, weights, drawn = _atoms_of(nu, samples, seed, "q")
    return _bad_mass(good_mask(sigma, mu, window, configs, eps), None if drawn else weights)


def dq_defect(
    sigma: SoficMap,
    nu: ModelMeasure,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    samples: int = 0,
    seed: int = 0,
    pair_cap: int = 4096,
) -> float:
    """Quenched defect of nu x nu against mu x mu on the pair alphabet.

    Explicit supports with at most pair_cap ordered pairs are summed exactly;
    otherwise independent pairs are drawn from two seeded streams.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if nu.explicit and nu.support.shape[0] ** 2 <= pair_cap:
        block, weights = nu.pairs(mu.alphabet.size)
    else:
        if samples < 1:
            raise ValueError("need a positive sample count for the pair draw")
        xs = nu.sample(stream(seed, "dq-left"), samples)
        ys = nu.sample(stream(seed, "dq-right"), samples)
        block = pair_configs(xs, ys, mu.alphabet.size)
        weights = None
    return _bad_mass(good_mask(sigma, product_process(mu, mu), window, block, eps), weights)


@dataclass
class DispersionReport:
    """Single-linkage clustering of empirical F-marginals across atoms."""

    masses: List[float]
    centroids: List[np.ndarray]
    barycentre: np.ndarray
    barycentre_tv: float
    threshold: float

    @property
    def cluster_count(self) -> int:
        return len(self.masses)

    def centroid_tvs(self, target: np.ndarray) -> List[float]:
        return tv_distance(np.stack(self.centroids), target).tolist()

    def to_json(self) -> dict:
        return {
            "clusters": [
                {"mass": m, "centroid": c.tolist()} for m, c in zip(self.masses, self.centroids)
            ],
            "barycentre": self.barycentre.tolist(),
            "barycentre_tv": self.barycentre_tv,
            "threshold": self.threshold,
        }


def dispersion(
    sigma: SoficMap,
    nu: ModelMeasure,
    mu: MarginalOracle,
    window: Window,
    samples: int = 0,
    seed: int = 0,
    threshold: float = 0.05,
) -> DispersionReport:
    """Cluster the empirical F-marginals of nu's atoms (exact weights on
    explicit supports) by single linkage at the given TV threshold, and
    measure the barycentre's TV distance from the target mu_F."""
    configs, weights, _ = _atoms_of(nu, samples, seed, "dispersion")
    k = configs.shape[0]
    marginals = counts_over_elements(sigma, configs, window.elements, mu.alphabet.size) / float(sigma.n)
    # single linkage: connected components of the TV < threshold graph
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        close = tv_distance(marginals[i + 1 :], marginals[i]) < threshold
        for j in (np.flatnonzero(close) + i + 1).tolist():
            parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        mass = float(weights[members].sum())
        centroid = (weights[members, None] * marginals[members]).sum(axis=0) / mass
        clusters.append((mass, centroid))
    clusters.sort(key=lambda mc: -mc[0])
    barycentre = (weights[:, None] * marginals).sum(axis=0)
    return DispersionReport(
        masses=[m for m, _ in clusters],
        centroids=[c for _, c in clusters],
        barycentre=barycentre,
        barycentre_tv=tv_distance(barycentre, mu.marginal_elems(window.elements)),
        threshold=threshold,
    )


def pair_vertex_stat(
    sigma: SoficMap,
    nu: ModelMeasure,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    vertex_pairs: int,
    seed: int,
) -> float:
    """Fraction of sampled vertex pairs (v, v') whose joint pushforward under
    an explicit-support nu on F x F is >= eps away from mu_F x mu_F in total
    variation."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = mu.alphabet.size
    mu_f = mu.marginal_elems(window.elements)
    joint_target = np.outer(mu_f, mu_f).ravel()
    npat = mu_f.size
    configs, weights = nu.require_explicit("pair_vertex_stat")
    codes = _pattern_codes(configs.T, sigma.window_perms(window), base).astype(np.int64)
    gen = stream(seed, "pair-vertex-choice")
    vs = gen.integers(0, sigma.n, size=vertex_pairs)
    ws = gen.integers(0, sigma.n, size=vertex_pairs)
    # one bincount with a row offset of npat^2 per pair: each row sums its
    # atoms in atom order, as a bincount of that pair alone would
    cells = npat * npat
    joint_codes = codes[vs] * npat + codes[ws] + np.arange(0, vertex_pairs * cells, cells)[:, None]
    joints = np.bincount(joint_codes.ravel(), weights=np.tile(weights, vertex_pairs), minlength=vertex_pairs * cells)
    bad = int((tv_distance(joints.reshape(vertex_pairs, cells), joint_target) >= eps).sum())
    return bad / vertex_pairs


def models_to_measure(configs: Sequence[np.ndarray]) -> ModelMeasure:
    """The uniform measure (1/k) sum of point masses at the given
    configurations; duplicates merge into heavier atoms."""
    block = np.ascontiguousarray(configs, dtype=np.uint8)
    if block.ndim != 2 or block.shape[0] < 1:
        raise ValueError("need at least one configuration")
    uniq, counts = np.unique(block, axis=0, return_counts=True)
    return ModelMeasure(block.shape[1], support=uniq, weights=counts / counts.sum())


def h_average(st: SoficMap, theta: ModelMeasure, elements: Sequence[Element]) -> ModelMeasure:
    """(1/|E|) sum over h in E of the adjoint pushforward of theta."""
    support, weights = theta.require_explicit("h_average")
    elems = list(elements)
    if not elems:
        raise ValueError("need at least one averaging element")
    block = np.concatenate([adjoint_shift(st, h, support) for h in elems])
    big_weights = np.tile(weights, len(elems)) / len(elems)
    uniq, inverse = np.unique(block, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, np.asarray(inverse).reshape(-1), big_weights)
    return ModelMeasure(st.n, support=uniq, weights=merged)


__all__ = [
    "DispersionReport",
    "lw_defect",
    "quenched_defect",
    "dq_defect",
    "dispersion",
    "pair_vertex_stat",
    "models_to_measure",
    "h_average",
    "EXACT_SUPPORT_CAP",
]

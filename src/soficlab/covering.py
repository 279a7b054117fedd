"""Hamming-average metrics, measures on model spaces and covering/packing
numbers.

A measure on X^V (`ModelMeasure`) is explicit atoms or iid site weights; its
product with itself is read as explicit pair atoms (`ModelMeasure.pairs`).
Covering uses closed balls (distance <= delta); packing uses strict
separation (distance > delta). The standard chain inequalities
cov_{delta/2} >= pack_delta >= cov_delta then hold verbatim at any finite
scale, boundary ties included. Every cover and pack solver takes a distance
matrix, so that a caller computes each matrix once (`pairwise_hamming` for
normalized Hamming distances) and non-Hamming metrics like the pair average
0.5 dX + 0.5 dY plug in directly. The set solvers (cov_delta_matrix,
pack_delta_matrix) take a required method: "exact" (branch and bound) or
"greedy" (scales further and is always a valid one-sided bound). The measure
solvers are exact only: the covering number by iterative deepening, the
packing number by a DP over atom subsets, capped at PACK_EPS_EXACT_BUDGET
atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .processes import validate_weights
from .randomness import categorical, stream

PACK_EPS_EXACT_BUDGET = 16
HAMMING_BLOCK = 256


def pairwise_hamming(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Normalized Hamming distances between rows of a and rows of b, computed
    HAMMING_BLOCK rows of a at a time."""
    a = np.asarray(a)
    b = a if b is None else np.asarray(b)
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], HAMMING_BLOCK):
        hi = min(lo + HAMMING_BLOCK, a.shape[0])
        out[lo:hi] = (a[lo:hi, None, :] != b[None, :, :]).mean(axis=2)
    return out


def _check_method(method: str) -> None:
    if method not in ("exact", "greedy"):
        raise ValueError(f"method must be 'exact' or 'greedy', got {method!r}")


@dataclass(frozen=True)
class CovResult:
    value: int
    method: str  # "exact" | "greedy"


class ModelMeasure:
    """A measure on X^V: explicit atoms with weights, or the iid product of
    site weights (see `iid`), whose per-vertex laws are computed without
    sampling. Both weight vectors follow `processes.validate_weights` and are
    kept as given, not renormalized."""

    def __init__(
        self,
        vertices: int,
        support: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        site_weights: Optional[Sequence[float]] = None,
    ):
        if (support is None) == (site_weights is None):
            raise ValueError("exactly one of support and site_weights is required")
        self.vertices = vertices
        self.site_weights = None
        self.support: Optional[np.ndarray] = None
        self.weights: Optional[np.ndarray] = None
        if site_weights is not None:
            try:
                validate_weights(site_weights)
            except ValueError as err:
                raise ValueError(f"site weights: {err}") from None
            self.site_weights = np.asarray(site_weights, dtype=np.float64)
            return
        sup = np.ascontiguousarray(support, dtype=np.uint8)
        if sup.ndim != 2 or sup.shape[1] != vertices:
            raise ValueError("support must be a (k, |V|) array")
        if np.unique(sup, axis=0).shape[0] != sup.shape[0]:
            raise ValueError("support entries must be distinct")
        if validate_weights(weights).size != sup.shape[0]:
            raise ValueError("weights must have one entry per support atom")
        self.support = sup
        self.weights = np.asarray(weights, dtype=np.float64)

    @property
    def explicit(self) -> bool:
        return self.support is not None

    @staticmethod
    def from_support(support, weights) -> "ModelMeasure":
        sup = np.ascontiguousarray(support, dtype=np.uint8)
        return ModelMeasure(sup.shape[1], support=sup, weights=weights)

    @staticmethod
    def iid(vertices: int, site_weights: Sequence[float]) -> "ModelMeasure":
        """The product measure with the same site law at every vertex, drawn
        by inverse CDF."""
        return ModelMeasure(vertices, site_weights=site_weights)

    def require_explicit(self, op: str) -> Tuple[np.ndarray, np.ndarray]:
        if self.support is None or self.weights is None:
            raise ValueError(f"{op} needs an explicit-support measure, got an iid one")
        return self.support, self.weights

    def pairs(self, base_y: int) -> Tuple[np.ndarray, np.ndarray]:
        """Atoms and weights of nu x nu on the pair alphabet, ordered pair
        (i, j) at row i * k + j. Returned as arrays, not as a measure: pairs
        of distinct atoms are distinct, and checking it again costs a sort of
        k^2 rows."""
        support, weights = self.require_explicit("pairs")
        k = support.shape[0]
        left = np.repeat(np.arange(k), k)
        right = np.tile(np.arange(k), k)
        return pair_configs(support[left], support[right], base_y), weights[left] * weights[right]

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        if self.site_weights is not None:
            return categorical(gen, self.site_weights, (count, self.vertices))
        return self.support[categorical(gen, self.weights, count)]


# -- exact set cover ---------------------------------------------------------------


def _greedy_cover_masks(masks: List[int], universe: int) -> int:
    uncovered = universe
    picks = 0
    while uncovered:
        best_gain = -1
        best_i = -1
        for i, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_gain <= 0:
            raise ValueError("points exist that no candidate ball covers")
        uncovered &= ~masks[best_i]
        picks += 1
    return picks


def _undominated(masks: List[int]) -> List[int]:
    """The masks in order, less each one contained in an earlier kept mask."""
    kept: List[int] = []
    for m in masks:
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def _min_cover_masks(masks: List[int], universe: int) -> int:
    """Exact minimum set cover by branch and bound on an uncovered point."""
    if universe == 0:
        return 0
    live = [m & universe for m in masks if m & universe]
    if len(live) <= 1024:  # dominated-candidate removal is quadratic
        live.sort(key=lambda m: -m.bit_count())
        live = _undominated(live)
    if not live:
        raise ValueError("points exist that no candidate ball covers")
    best = _greedy_cover_masks(live, universe)
    max_ball = max(m.bit_count() for m in live)

    def dfs(uncovered: int, used: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, used)
            return
        if used + -(-uncovered.bit_count() // max_ball) >= best:
            return
        point = uncovered & -uncovered
        for m in live:
            if m & point:
                dfs(uncovered & ~m, used + 1)

    dfs(universe, 0)
    return best


def _mis_branch(adj: List[int], pool: int, current: int, best: List[int]) -> None:
    if current + pool.bit_count() <= best[0]:
        return
    # branch on a maximum-degree vertex: taking it removes its neighbourhood
    v = -1
    vdeg = -1
    p = pool
    while p:
        bit = p & -p
        i = bit.bit_length() - 1
        deg = (adj[i] & pool).bit_count()
        if deg > vdeg:
            vdeg = deg
            v = i
        p ^= bit
    if vdeg <= 0:
        # no edge is left in pool (or pool is empty): all of it is independent
        best[0] = current + pool.bit_count()
        return
    take = pool & ~(1 << v) & ~adj[v]
    _mis_branch(adj, take, current + 1, best)
    # a vertex of degree 1 lies in some maximum independent set (swap it for
    # its neighbour), so leaving it out cannot do better; without this, n
    # disjoint edges take 2^n calls
    if vdeg > 1:
        _mis_branch(adj, pool & ~(1 << v), current, best)


def _row_masks(rows: np.ndarray) -> List[int]:
    """Each row of a boolean matrix as a Python int: bit j is column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _conflict_masks(dist: np.ndarray, delta: float) -> List[int]:
    """Adjacency bitmasks of the <=delta graph on the rows of a square
    distance matrix: bit j of mask i is set when i != j and dist[i, j] <= delta."""
    conflict = dist <= delta
    np.fill_diagonal(conflict, False)
    return _row_masks(conflict)


def _max_separated_exact(dist: np.ndarray, delta: float) -> int:
    """Maximum strictly delta-separated subset = MIS of the <=delta graph."""
    best = [0]
    _mis_branch(_conflict_masks(dist, delta), (1 << dist.shape[0]) - 1, 0, best)
    return best[0]


# -- set quantities ----------------------------------------------------------------


def cov_delta_matrix(dist: np.ndarray, delta: float, method: str) -> CovResult:
    """min |F| with closed delta-balls around F covering all points.

    dist is square: dist[i, j] between candidate center i and point j.
    """
    _check_method(method)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    masks = _row_masks(dist <= delta)
    universe = (1 << dist.shape[1]) - 1
    if method == "exact":
        return CovResult(_min_cover_masks(masks, universe), method)
    return CovResult(_greedy_cover_masks(masks, universe), method)


def pack_delta_matrix(dist: np.ndarray, delta: float, method: str) -> CovResult:
    """Largest subset with pairwise distance strictly greater than delta."""
    _check_method(method)
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if method == "exact":
        return CovResult(_max_separated_exact(dist, delta), method)
    kept: List[int] = []
    for i in range(dist.shape[0]):
        if all(dist[i, j] > delta for j in kept):
            kept.append(i)
    return CovResult(len(kept), method)


# -- measure quantities ------------------------------------------------------------


def _partial_cover_exact(cover: np.ndarray, weights: np.ndarray, need: float) -> int:
    """Smallest center count whose covered atoms carry mass strictly > need.

    Iterative deepening over cover size with a union-bound prune.
    """
    c, k = cover.shape
    order = np.argsort(-(cover @ weights), kind="stable")
    # bit j of a mask is atom j; equal masks keep their first (heaviest) row
    ordered = cover[order]
    rows = ordered.view(np.dtype((np.void, k))).ravel()
    _, first = np.unique(rows, return_index=True)
    masks = _row_masks(ordered[np.sort(first)])
    masks = _undominated(masks)  # earlier masks are heavier
    if not masks:
        raise ValueError("no candidate center covers any atom")

    masses: Dict[int, float] = {}

    def covered_mass(m: int) -> float:
        got = masses.get(m)
        if got is None:
            got = masses[m] = sum(weights[j] for j in range(k) if m >> j & 1)
        return got

    tops = sorted((covered_mass(m) for m in masks), reverse=True)
    for size in range(1, len(masks) + 1):

        def dfs(start: int, chosen: int, depth: int) -> bool:
            got = covered_mass(chosen)
            if got > need:
                return True
            slots = size - depth
            if slots == 0:
                return False
            if got + sum(tops[:slots]) <= need:
                return False
            for i in range(start, len(masks)):
                if dfs(i + 1, chosen | masks[i], depth + 1):
                    return True
            return False

        found = dfs(0, 0, 0)
        if found:
            return size
    raise ValueError("mass target unreachable: total covered mass <= 1 - eps")


def cov_eps_delta_matrix(dist: np.ndarray, weights: np.ndarray, eps: float, delta: float) -> CovResult:
    """min |F| with nu(closed delta-neighbourhood of F) > 1 - eps, exactly.

    dist is (centers, atoms); weights are the atom masses. With every
    configuration as a center (at toy sizes) this is the ambient-center
    covering number exactly.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    w = np.asarray(weights, dtype=np.float64)
    return CovResult(_partial_cover_exact(dist <= delta, w, 1.0 - eps), "exact")


def pack_eps_delta_matrix(
    dist: np.ndarray,
    weights: np.ndarray,
    eps: float,
    delta: float,
) -> CovResult:
    """min over atom subsets of mass > 1 - eps of the max separated subset.

    Exact only, and exponential in the atom count: full DP over subsets.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    w = np.asarray(weights, dtype=np.float64)
    k = w.size
    if k > PACK_EPS_EXACT_BUDGET:
        raise ValueError(f"pack_eps_delta_matrix is exact-only and capped at {PACK_EPS_EXACT_BUDGET} atoms")
    adj = _conflict_masks(dist, delta)
    size = 1 << k
    mis = np.zeros(size, dtype=np.int32)
    for m in range(1, size):
        bit = m & -m
        v = bit.bit_length() - 1
        skip = mis[m ^ bit]
        take = 1 + mis[m & ~bit & ~adj[v]]
        mis[m] = max(skip, take)
    mass = np.zeros(size)
    for m in range(1, size):
        bit = m & -m
        mass[m] = mass[m ^ bit] + w[bit.bit_length() - 1]
    eligible = mass > 1.0 - eps
    if not eligible.any():
        raise ValueError("no atom subset reaches mass 1 - eps")
    return CovResult(int(mis[eligible].min()), "exact")


# -- couplings ---------------------------------------------------------------------


def pair_configs(xs: np.ndarray, ys: np.ndarray, base_y: int) -> np.ndarray:
    """Combine configuration blocks into pair-alphabet configurations
    (row-major symbol order, matching product_process), in uint8: a pair
    alphabet has at most 256 letters, and base_y = 256 only when every x is 0."""
    return np.asarray(xs, dtype=np.uint8) * (base_y % 256) + np.asarray(ys, dtype=np.uint8)


def random_coupling(seed: int, mu_weights: np.ndarray, nu_weights: np.ndarray) -> np.ndarray:
    """A random exact coupling matrix via the northwest-corner rule on
    shuffled atom orders; marginals are exact up to float subtraction."""
    gen = stream(seed, "coupling")
    wx = np.asarray(mu_weights, dtype=np.float64)
    wy = np.asarray(nu_weights, dtype=np.float64)
    ox = gen.permutation(wx.size)
    oy = gen.permutation(wy.size)
    plan = np.zeros((wx.size, wy.size))
    rx = wx[ox].copy()
    ry = wy[oy].copy()
    i = j = 0
    while i < rx.size and j < ry.size:
        move = min(rx[i], ry[j])
        plan[ox[i], oy[j]] = move
        rx[i] -= move
        ry[j] -= move
        if rx[i] <= 1e-15:
            i += 1
        else:
            j += 1
    return plan / plan.sum()


__all__ = [
    "CovResult",
    "ModelMeasure",
    "pairwise_hamming",
    "cov_delta_matrix",
    "pack_delta_matrix",
    "cov_eps_delta_matrix",
    "pack_eps_delta_matrix",
    "pair_configs",
    "random_coupling",
]

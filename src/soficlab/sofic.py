"""Sofic approximations sigma: G -> Sym(V) and their diagnostics.

A SoficMap stores one permutation per group generator; sigma^g for a general
element is composed on the fly along the canonical word of g. A product map
sigma x tau stores only its two factors and composes sigma^(g, h) from
sigma^g and tau^h. The Schreier graph of a chosen generator set exposes its
second eigenvalue, computed by a dense symmetric eigensolve for each (map,
vertex block) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import Element, GroupSpec, Window, coind_group
from .randomness import fisher_yates, partitioned_permutation, stream


def _inverse_perm(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


class SoficMap:
    """A finite vertex set with one permutation per group generator. A map
    over a direct product G x H holds no permutation: it keeps the factor
    pair (sigma, tau) as `product_of` (see `product`)."""

    __slots__ = ("group", "n", "perms", "inv_perms", "partition", "product_of")

    def __init__(
        self,
        group: GroupSpec,
        perms: Dict[str, np.ndarray],
        partition: Optional[Dict[str, np.ndarray]] = None,
        product_of: Optional[Tuple["SoficMap", "SoficMap"]] = None,
    ):
        labels = group.generator_labels()
        if set(perms) != set(labels):
            raise ValueError(f"need exactly one permutation per generator {labels}")
        sizes = {len(p) for p in perms.values()}
        if product_of is not None:  # a direct product has no generators
            sizes = {product_of[0].n * product_of[1].n}
        if len(sizes) != 1:
            raise ValueError("all permutations must act on the same vertex set")
        self.n = sizes.pop()
        self.group = group
        self.perms: Dict[str, np.ndarray] = {}
        self.inv_perms: Dict[str, np.ndarray] = {}
        for lab in labels:
            p = np.asarray(perms[lab], dtype=np.int64)
            if not np.array_equal(np.sort(p), np.arange(self.n)):
                raise ValueError(f"permutation for {lab!r} is not a bijection")
            self.perms[lab] = p
            self.inv_perms[lab] = _inverse_perm(p)
        self.partition = None
        if partition is not None:
            self.partition = {k: np.asarray(v, dtype=np.int64) for k, v in partition.items()}
        self.product_of = product_of

    # -- evaluation -----------------------------------------------------------

    def _letter_perm(self, letter: int, labels: Sequence[str]) -> np.ndarray:
        lab = labels[abs(letter) - 1]
        return self.perms[lab] if letter > 0 else self.inv_perms[lab]

    def perm_of(self, g: Element) -> np.ndarray:
        """The full permutation array of sigma^g (sigma^g[v] = image of v)."""
        if self.product_of is not None:
            left, right = self.product_of
            pl = left.perm_of(g[0])
            pr = right.perm_of(g[1])
            return (pl[:, None] * right.n + pr[None, :]).ravel()
        word = self.group.word_of(g)
        labels = self.group.generator_labels()
        out = np.arange(self.n, dtype=np.int64)
        # sigma^{s1..sm} = sigma^{s1} o ... o sigma^{sm}: apply s_m first.
        for letter in reversed(word):
            out = self._letter_perm(letter, labels)[out]
        return out

    def window_perms(self, window: Window) -> np.ndarray:
        """Stacked permutations for a window: row i is sigma^{window[i]}."""
        return np.stack([self.perm_of(g) for g in window.elements])


# -- constructors ------------------------------------------------------------------


def random_uniform(spec: GroupSpec, n: int, seed: int) -> SoficMap:
    """Independent uniform permutations per generator (seeded Fisher-Yates)."""
    if spec.kind not in ("free", "free_product"):
        raise ValueError("random_uniform draws generator permutations for free kinds")
    if n < 1:
        raise ValueError("n must be >= 1")
    perms = {}
    for lab in spec.generator_labels():
        perms[lab] = fisher_yates(stream(seed, "sofic", lab), n)
    return SoficMap(spec, perms)


def partitioned_random(n: int, seed: int) -> SoficMap:
    """The partitioned random model on V = U | W with |U| = 3n, |W| = n.

    The group is the free product of <a,b> and <a',b'>. a and b are uniform
    among permutations preserving {U, W} setwise; a' and b' are uniform on all
    of Sym(V). Partition labels are retained on the result.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    group = coind_group()
    size = 4 * n
    u_block = np.arange(3 * n, dtype=np.int64)
    w_block = np.arange(3 * n, size, dtype=np.int64)
    perms = {}
    for lab in ("a", "b"):
        perms[lab] = partitioned_permutation(stream(seed, "sofic", lab), [u_block, w_block], size)
    for lab in ("a'", "b'"):
        perms[lab] = fisher_yates(stream(seed, "sofic", lab), size)
    return SoficMap(group, perms, partition={"U": u_block, "W": w_block})


def quotient_map(spec: GroupSpec, n: int) -> SoficMap:
    """The exact finite quotient Z/nZ of the integers, acting on n vertices by
    the n-cycle: a true homomorphism."""
    if not spec.is_integers():
        raise ValueError("quotient_map supports the integers")
    if n < 1:
        raise ValueError("cycle length n >= 1 required")
    perm = (np.arange(n, dtype=np.int64) + 1) % n
    return SoficMap(spec, {spec.labels[0]: perm})


def product(sigma: SoficMap, tau: SoficMap) -> SoficMap:
    """Product approximation on V x W: (g,h) acts as sigma^g x tau^h.

    Vertices are row-major: (v, w) -> v * |W| + w. The map keeps only the
    factor pair; `perm_of` combines the factors' permutations.
    """
    return SoficMap(GroupSpec.direct_product(sigma.group, tau.group), {}, product_of=(sigma, tau))


# -- Schreier spectral diagnostics ------------------------------------------------


@dataclass(frozen=True)
class SpectralReport:
    """Second eigenvalue of the normalized Schreier adjacency.

    lambda2 is the modulus of the second-largest (signed) eigenvalue;
    cheeger_lower = (1 - signed value)/2 lower-bounds the edge expansion.
    """

    lambda2: float
    lambda2_signed: float
    cheeger_lower: float


def schreier_spectral_gaps(
    blocks: Sequence[Tuple[SoficMap, np.ndarray]], generators: Sequence[str]
) -> List[SpectralReport]:
    """The second-largest eigenvalue of the normalized adjacency of each
    block's Schreier multigraph on the chosen generators, by a dense solve.

    A block is (sigma, restriction); one SpectralReport is returned per block,
    in order. Each generator contributes the undirected edges {v, pi_s(v)},
    giving a 2k-regular multigraph; the normalized adjacency M has spectrum in
    [-1, 1] with the constant vector at eigenvalue 1. Only edges inside
    `restriction` are kept (the intended use restricts to a block preserved by
    the chosen generators), so M need not be regular; the value reported is
    the top eigenvalue of M compressed to the mean-zero vectors.

    The signed value is rounded to 10 decimal places before the report is
    derived from it: the last bits of a dense solve move with the BLAS thread
    count, the rounded value does not. The rounding is absolute, like the
    solver's error on a spectrum in [-1, 1]: a relative rounding would keep
    the noise of an eigenvalue that is exactly 0.
    """
    if not generators:
        raise ValueError("generator set must be nonempty")
    reports = []
    for sigma, restriction in blocks:
        verts = np.asarray(restriction, dtype=np.int64)
        m = verts.size
        if m < 2:
            raise ValueError("need at least two vertices for a second eigenvalue")
        pos = np.full(sigma.n, m, dtype=np.int64)
        pos[verts] = np.arange(m)
        adj = np.zeros((m, m + 1))  # edge counts; column m collects the dropped edges
        for lab in generators:
            for perm in (sigma.perms[lab], sigma.inv_perms[lab]):
                # one image per vertex, so no cell is hit twice by one update
                adj[np.arange(m), pos[perm[verts]]] += 1.0
        M = adj[:, :m] / (2.0 * len(generators))
        u = M.sum(axis=1)
        s = u.sum()
        # P M P - 2J/m with P the projection onto the mean-zero vectors: the
        # constant vector moves to eigenvalue -2, below the compression's
        # spectrum in [-1, 1]
        A = M - (u[:, None] + u[None, :]) / m + (s / m**2 - 2.0 / m)
        value = round(float(np.linalg.eigvalsh(A)[-1]), 10) + 0.0  # + 0.0 turns -0.0 into 0.0
        reports.append(SpectralReport(lambda2=abs(value), lambda2_signed=value, cheeger_lower=(1.0 - value) / 2.0))
    return reports


__all__ = [
    "SoficMap",
    "SpectralReport",
    "random_uniform",
    "partitioned_random",
    "quotient_map",
    "product",
    "schreier_spectral_gaps",
]

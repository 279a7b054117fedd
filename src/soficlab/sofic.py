"""Sofic approximations sigma: G -> Sym(V) and their diagnostics.

A SoficMap stores one permutation per group generator; sigma^g for a general
element is composed on the fly along the canonical word of g. The Schreier
graph of a chosen generator set exposes a spectral-gap estimate, computed for
many (map, vertex block) pairs in one batched power iteration.
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
    """A finite vertex set with one permutation per group generator."""

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
        if self.group.kind == "product":
            if self.product_of is None:
                raise ValueError("this map over a product group lacks product structure")
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

    Vertices are row-major: (v, w) -> v * |W| + w.
    """
    group = GroupSpec.direct_product(sigma.group, tau.group)
    labels = group.generator_labels()
    left_labels = sigma.group.generator_labels()
    nw = tau.n
    identity_w = np.arange(nw, dtype=np.int64)
    identity_v = np.arange(sigma.n, dtype=np.int64)
    perms = {}
    for i, lab in enumerate(labels):
        if i < len(left_labels):
            pl, pr = sigma.perms[left_labels[i]], identity_w
        else:
            right_lab = tau.group.generator_labels()[i - len(left_labels)]
            pl, pr = identity_v, tau.perms[right_lab]
        perms[lab] = (pl[:, None] * nw + pr[None, :]).ravel()
    return SoficMap(group, perms, product_of=(sigma, tau))


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
    converged: bool
    iterations: int
    residual: float


SPECTRAL_TOL = 1e-9
SPECTRAL_MAX_ITERS = 100_000


def schreier_spectral_gaps(
    blocks: Sequence[Tuple[SoficMap, np.ndarray, int]], generators: Sequence[str]
) -> List[SpectralReport]:
    """Power iteration for the second-largest eigenvalue of the normalized
    adjacency of each block's Schreier multigraph on the chosen generators.

    A block is (sigma, restriction, seed); one SpectralReport is returned per
    block, in order. Each generator contributes the undirected edges
    {v, pi_s(v)}, giving a 2k-regular multigraph; the normalized adjacency has
    spectrum in [-1, 1] with the constant vector at eigenvalue 1. That top
    vector is deflated by projection and the iteration runs on (M + I)/2, so
    it converges to the second-largest signed eigenvalue even when that
    eigenvalue is negative. Only edges inside `restriction` are kept (the
    intended use restricts to a block preserved by the chosen generators).
    A block stops when its eigenvalue estimate moves by less than
    SPECTRAL_TOL, when its iterate vanishes, or after SPECTRAL_MAX_ITERS
    iterations. The iteration starts from a standard normal vector drawn from
    the block's seed.

    Blocks of equal size are iterated together, one row each, and a row
    leaves at the step where its own iteration stops. Every row operation
    (neighbour sums in a fixed order, row dot products, row means) gives the
    floats that iterating the block alone would, so a report does not depend
    on the other blocks of the call.
    """
    if not generators:
        raise ValueError("generator set must be nonempty")
    reports: List[Optional[SpectralReport]] = [None] * len(blocks)
    by_size: Dict[int, List[int]] = {}
    tables = []
    for i, (sigma, restriction, _) in enumerate(blocks):
        table = _neighbour_table(sigma, generators, restriction)
        tables.append(table)
        by_size.setdefault(table.shape[1], []).append(i)
    for m, members in by_size.items():
        x0 = np.empty((len(members), m))
        for row, i in enumerate(members):
            x = stream(blocks[i][2], "spectral").standard_normal(m)
            x -= x.mean()
            x0[row] = x / np.linalg.norm(x)
        found = _power_iterate(np.stack([tables[i] for i in members], axis=1), x0, 2.0 * len(generators))
        for i, report in zip(members, found):
            reports[i] = report
    return reports


def _neighbour_table(sigma: SoficMap, generators: Sequence[str], restriction: np.ndarray) -> np.ndarray:
    """(2 * |generators|, m) positions of each restricted vertex's neighbours:
    the forward then the backward image under each generator. A neighbour
    outside the restriction is m, the index of a zero slot after the block."""
    verts = np.asarray(restriction, dtype=np.int64)
    m = verts.size
    if m < 2:
        raise ValueError("need at least two vertices for a second eigenvalue")
    pos = np.full(sigma.n, m, dtype=np.int64)
    pos[verts] = np.arange(m)
    table = []
    for lab in generators:
        table.append(pos[sigma.perms[lab][verts]])
        table.append(pos[sigma.inv_perms[lab][verts]])
    return np.stack(table)


def _power_iterate(tables: np.ndarray, x: np.ndarray, deg: float) -> List[SpectralReport]:
    """The iteration of schreier_spectral_gaps on k blocks of m vertices at
    once. tables is (2 * |generators|, k, m), the k tables of _neighbour_table
    side by side, and x the (k, m) unit start vectors; returns the k reports
    in row order."""
    k, m = x.shape
    reports: List[Optional[SpectralReport]] = [None] * k
    rows = np.arange(k)  # the block of each row still iterating
    prev = np.full(k, np.inf)
    # the iterate with each row's zero slot: x[r, v] is xp.ravel()[r * (m + 1) + v]
    xp = np.zeros((k, m + 1))
    xp[:, :m] = x

    def gather_index() -> np.ndarray:
        return tables + (np.arange(rows.size) * (m + 1))[:, None]

    def apply_m() -> np.ndarray:
        # each neighbour sum starts at 0.0 and adds in the order np.bincount
        # adds one block's edge list
        mx = np.add.reduce(xp.take(index), axis=0, initial=0.0)
        mx /= deg
        return mx

    def finish(which: np.ndarray, lam: np.ndarray, mx: np.ndarray, converged: bool, iterations: int) -> None:
        res = mx[which] - lam[which, None] * xp[which, :m]
        res -= res.mean(axis=1, keepdims=True)
        residual = np.sqrt(np.vecdot(res, res))
        for row, value, r in zip(rows[which], lam[which].tolist(), residual.tolist()):
            reports[row] = SpectralReport(
                lambda2=abs(value),
                lambda2_signed=value,
                cheeger_lower=(1.0 - value) / 2.0,
                converged=converged,
                iterations=iterations,
                residual=r,
            )

    index = gather_index()
    for iterations in range(1, SPECTRAL_MAX_ITERS + 1):
        x = xp[:, :m]
        mx = apply_m()
        lam = np.vecdot(x, mx)
        stop = np.abs(lam - prev) < SPECTRAL_TOL
        y = 0.5 * (mx + x)
        y -= y.mean(axis=1, keepdims=True)
        norm = np.sqrt(np.vecdot(y, y))
        # a vanishing y means x was (numerically) in the kernel of (M+I)/2 on
        # the mean-zero subspace; the Rayleigh quotient is already exact there
        stop |= norm < 1e-300
        if stop.any():
            finish(stop, lam, mx, True, iterations)
            go = ~stop
            rows, lam, y, norm = rows[go], lam[go], y[go], norm[go]
            if not rows.size:
                return reports
            tables = tables[:, go]
            index = gather_index()
            xp = np.zeros((rows.size, m + 1))
        prev = lam
        np.divide(y, norm[:, None], out=xp[:, :m])
    # at the cap, the last update moved x after lam was measured
    finish(np.ones(rows.size, dtype=bool), lam, apply_m(), False, SPECTRAL_MAX_ITERS)
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

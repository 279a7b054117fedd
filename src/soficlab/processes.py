"""Shift-invariant processes on X^G via exact finite-window marginal oracles.

Every process is represented by its alphabet and a function from finite
windows F to the exact marginal distribution on X^F, stored as a dense vector
of |X|^|F| doubles. Pattern indexing is mixed-radix with window position 0
most significant: pattern (x_0, ..., x_{m-1}) has index sum x_i |X|^(m-1-i).
This module holds the package's only encoder of that index, `_pattern_codes`,
and its only decoder, `_decode_codes` (`decode_patterns` decodes every index
below |X|^|F|); the oracles here, the good-model kernel and the good-model
sets of `models` and the defects of `convergence` all index patterns through
them. Each marginal is computed for all patterns at once, as array operations over
the decoded pattern matrix, with the same floating-point operation order as
an evaluation one pattern at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import check_weights
from .groups import Element, GroupSpec

PATTERN_CAP = 1 << 24


@dataclass(frozen=True)
class Alphabet:
    size: int

    def __post_init__(self) -> None:
        if not (1 <= self.size <= 256):
            raise ValueError("alphabet size must be in 1..256")


def pattern_count(base: int, length: int) -> int:
    total = base**length
    if total > PATTERN_CAP:
        raise ValueError(f"pattern space {base}^{length} exceeds the {PATTERN_CAP} cap")
    return total


def decode_patterns(base: int, length: int) -> np.ndarray:
    """All patterns as a (base^length, length) uint8 symbol matrix, index order."""
    return _decode_codes(np.arange(pattern_count(base, length), dtype=np.int64), base, length)


def _decode_codes(codes: np.ndarray, base: int, length: int) -> np.ndarray:
    """The package's one pattern decoder, the inverse of `_pattern_codes`:
    each integer code below base^length as a row of `length` uint8 symbols,
    position 0 most significant. The rows are filled a column at a time from
    one int64 copy of the codes, so no temporary is the matrix's size in int64."""
    idx = np.array(codes, dtype=np.int64)
    out = np.empty((idx.size, length), dtype=np.uint8)
    for col in range(length - 1, -1, -1):
        np.remainder(idx, base, out=out[:, col], casting="unsafe")
        idx //= base
    return out


def _pattern_codes(symbols: np.ndarray, rows, base: int) -> np.ndarray:
    """The package's one pattern encoder, the inverse of `_decode_codes`:
    sum_i symbols[rows[i]] * base^(m-1-i) over the m entries of `rows`.

    `symbols` is position-major and of an unsigned dtype. An entry of `rows`
    is a position, which gathers one row, or an index array, which gathers
    whole rows at once (the window images of `models`). Codes are built in
    place by Horner steps in the narrowest unsigned dtype that holds
    base^m - 1; no partial code exceeds it, and symbols already in that dtype
    are not widened. A position gathers a view of `symbols`, which is copied
    before the first step writes to it.
    """
    codes = symbols[rows[0]].astype(np.min_scalar_type(base ** len(rows) - 1), copy=False)
    if np.may_share_memory(codes, symbols):
        codes = codes.copy()
    for r in rows[1:]:
        codes *= base
        codes += symbols[r]
    return codes


def tv_distance(p, q):
    """Total variation distance over the last axis: a Python float for two
    vectors, one value per row for a block, each bit for bit a 1-D call's."""
    tv = _tv_rows(p, q)
    return float(tv) if tv.ndim == 0 else tv


def _tv_rows(p, q) -> np.ndarray:
    """The package's one TV expression, half the l1 distance, summed along the
    rows of a C-contiguous |p - q| so that no row depends on the layout of p
    and q. The kernels call it directly, not `tv_distance`, which the
    benchmark's tracer wraps as a public function."""
    return 0.5 * np.abs(np.subtract(p, q, order="C")).sum(axis=-1)


class MarginalOracle:
    """Base class: exact marginals for arbitrary finite element tuples."""

    alphabet: Alphabet
    group: GroupSpec

    def __init__(self, alphabet: Alphabet, group: GroupSpec):
        self.alphabet = alphabet
        self.group = group
        self._cache: Dict[Tuple[Element, ...], np.ndarray] = {}

    def marginal_elems(self, elements: Tuple[Element, ...]) -> np.ndarray:
        key = tuple(elements)
        if not key or len(set(key)) != len(key):
            raise ValueError("marginal elements must be nonempty and distinct")
        hit = self._cache.get(key)
        if hit is None:
            hit = self._compute(key)
            hit.setflags(write=False)
            self._cache[key] = hit
        return hit

    def one_dim(self) -> np.ndarray:
        return self.marginal_elems((self.group.identity(),))

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        raise NotImplementedError


def validate_weights(weights: Sequence[float]) -> np.ndarray:
    """`config.check_weights`, the package's one probability-vector rule (a
    nonempty 1-D vector of finite, nonnegative entries whose `math.fsum` is
    within 1e-9 of 1), then the vector renormalized by its numpy sum."""
    check_weights(weights)
    w = np.asarray(weights, dtype=np.float64)
    return w / float(w.sum())


class BernoulliOracle(MarginalOracle):
    """Product measure weights^(x G): iid coordinates."""

    def __init__(self, weights: Sequence[float], group: GroupSpec):
        self.weights = validate_weights(weights)
        super().__init__(Alphabet(self.weights.size), group)

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        pattern_count(self.alphabet.size, len(elements))
        probs = np.ones(1)
        for _ in elements:
            probs = np.outer(probs, self.weights).ravel()
        return probs


class TreeMarkovOracle(MarginalOracle):
    """Tree-indexed Markov chain on the Cayley tree of a free group.

    Requires the initial vector to be stationary and in detailed balance with
    the transition matrix, so the measure is independent of edge orientation
    and shift-invariant.
    """

    def __init__(self, transition: Sequence[Sequence[float]], initial: Sequence[float], group: GroupSpec):
        if group.kind != "free":
            raise ValueError("tree_markov is defined over free groups")
        P = np.asarray(transition, dtype=np.float64)
        pi = np.asarray(initial, dtype=np.float64)
        k = pi.size
        if P.shape != (k, k):
            raise ValueError("transition must be square and match the initial vector")
        # the rule sees the given entries: a float64 copy would turn a bool into 1.0
        for what, law in (("initial", initial), *((f"transition row {i}", row) for i, row in enumerate(transition))):
            try:
                validate_weights(law)
            except ValueError as err:
                raise ValueError(f"{what}: {err}") from None
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            raise ValueError("initial vector is not stationary for the transition")
        balance = pi[:, None] * P - (pi[:, None] * P).T
        if np.max(np.abs(balance)) > 1e-10:
            raise ValueError("transition violates detailed balance beyond 1e-10")
        self.P = P
        self.pi = pi
        super().__init__(Alphabet(k), group)

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        base = self.alphabet.size
        m = len(elements)
        total = pattern_count(base, m)
        # Minimal spanning subtree of the left Cayley tree: all suffixes of
        # the reduced words. Left-tree distance |u v^-1| is unchanged by
        # right translation, which is what keeps the Fg-marginal equal to
        # the F-marginal.
        nodes = {(): None}
        for w in elements:
            for i in range(1, len(w) + 1):
                nodes[tuple(w[len(w) - i :])] = None
        children: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {w: [] for w in nodes}
        for w in nodes:
            if w:
                children[tuple(w[1:])].append(w)
        for kids in children.values():
            kids.sort()
        clamp_pos = {tuple(w): i for i, w in enumerate(elements)}
        patterns = decode_patterns(base, m)
        rows = np.arange(total)
        P = self.P

        def subtree(node: Tuple[int, ...]) -> np.ndarray:
            # (total, base) likelihoods of the node's state given the clamped
            # leaves below it; detailed balance makes the edge direction
            # irrelevant, so P serves for both orientations. The stacked
            # matmul forms sum in the order of a per-pattern P @ cvec and
            # pi @ vec, which keeps the result bit-identical to it.
            vec = np.ones((total, base))
            for child in children[node]:
                cvec = subtree(child)
                vec = vec * np.matmul(P, cvec[:, :, None])[:, :, 0]
            if node in clamp_pos:
                s = patterns[:, clamp_pos[node]]
                kept = np.zeros((total, base))
                kept[rows, s] = vec[rows, s]
                vec = kept
            return vec

        return np.matmul(self.pi, subtree(())[:, :, None])[:, 0]


class CosetIidOracle(MarginalOracle):
    """Constant on right cosets of the first free factor H, iid across cosets."""

    def __init__(self, mu0: Sequence[float], group: GroupSpec):
        if group.kind != "free_product":
            raise ValueError("coset_iid is defined over free products")
        self.mu0 = validate_weights(mu0)
        super().__init__(Alphabet(self.mu0.size), group)

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        base = self.alphabet.size
        m = len(elements)
        total = pattern_count(base, m)
        keys = [self.group.right_coset_key(g) for g in elements]
        classes: Dict[Tuple[int, ...], List[int]] = {}
        for pos, key in enumerate(keys):
            classes.setdefault(key, []).append(pos)
        patterns = decode_patterns(base, m)
        probs = np.ones(total)
        for positions in classes.values():
            s = patterns[:, positions[0]]
            ok = np.all(patterns[:, positions[1:]] == s[:, None], axis=1)
            probs = np.where(ok, probs * self.mu0[s], 0.0)
        return probs


class PeriodicOrbitOracle(MarginalOracle):
    """Uniform measure on the shift orbit of a p-periodic point of X^Z."""

    def __init__(self, pattern: str, group: GroupSpec):
        if not group.is_integers():
            raise ValueError("periodic_orbit is defined over the integers")
        if not pattern or not pattern.isdigit():
            raise ValueError("pattern must be a nonempty digit string")
        symbols = tuple(int(c) for c in pattern)
        p = len(symbols)
        for d in range(1, p):
            if p % d == 0 and all(symbols[i] == symbols[i % d] for i in range(p)):
                raise ValueError(f"pattern has least period {d}, not {p}")
        self.symbols = symbols
        self.period = p
        super().__init__(Alphabet(max(max(symbols) + 1, 2)), group)

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        base = self.alphabet.size
        m = len(elements)
        probs = np.zeros(pattern_count(base, m))
        p = self.period
        offsets = np.array([sum(1 if s > 0 else -1 for s in w) for w in elements])
        # orbit[i, shift]: the symbol at position i of the pattern seen at shift
        orbit = np.array(self.symbols, dtype=np.uint8)[(offsets[:, None] + np.arange(p)) % p]
        # add.at adds the shifts in order, as a loop over them would
        np.add.at(probs, _pattern_codes(orbit, range(m), base), 1.0 / p)
        return probs


class CoinducedOracle(MarginalOracle):
    """Independent copies of a base G-process along the fibers of G x H."""

    def __init__(self, base: MarginalOracle, h_spec: GroupSpec):
        self.base = base
        super().__init__(base.alphabet, GroupSpec.direct_product(base.group, h_spec))

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        basealpha = self.alphabet.size
        m = len(elements)
        total = pattern_count(basealpha, m)
        fibers: Dict[Element, List[int]] = {}
        for pos, (g, h) in enumerate(elements):
            fibers.setdefault(h, []).append(pos)
        fiber_data = []
        for h, positions in fibers.items():
            g_parts = tuple(elements[q][0] for q in positions)
            fiber_data.append((positions, self.base.marginal_elems(g_parts)))
        patterns = decode_patterns(basealpha, m).T
        probs = np.ones(total)
        for positions, local in fiber_data:
            probs *= local[_pattern_codes(patterns, positions, basealpha)]
        return probs


class ProductOracle(MarginalOracle):
    """Independent joining of two processes over the same group."""

    def __init__(self, mu: MarginalOracle, nu: MarginalOracle):
        if mu.group != nu.group:
            raise ValueError("product_process requires a common group")
        self.mu = mu
        self.nu = nu
        super().__init__(Alphabet(mu.alphabet.size * nu.alphabet.size), mu.group)

    def _compute(self, elements: Tuple[Element, ...]) -> np.ndarray:
        bx = self.mu.alphabet.size
        by = self.nu.alphabet.size
        m = len(elements)
        pattern_count(bx * by, m)
        pm = self.mu.marginal_elems(elements)
        pn = self.nu.marginal_elems(elements)
        # by is 256 when bx is 1, and a uint8 array cannot be divided by 256
        x_digits, y_digits = np.divmod(decode_patterns(bx * by, m).T, np.uint16(by))
        return pm[_pattern_codes(x_digits, range(m), bx)] * pn[_pattern_codes(y_digits, range(m), by)]


# -- constructor helpers -----------------------------------------------------------


def bernoulli(weights: Sequence[float], group: GroupSpec) -> BernoulliOracle:
    return BernoulliOracle(weights, group)


def tree_markov(transition: Sequence[Sequence[float]], initial: Sequence[float], group: GroupSpec) -> TreeMarkovOracle:
    return TreeMarkovOracle(transition, initial, group)


def coset_iid(mu0: Sequence[float], group: GroupSpec) -> CosetIidOracle:
    return CosetIidOracle(mu0, group)


def periodic_orbit(pattern: str, group: GroupSpec) -> PeriodicOrbitOracle:
    return PeriodicOrbitOracle(pattern, group)


def coinduced(base: MarginalOracle, h_spec: GroupSpec) -> CoinducedOracle:
    return CoinducedOracle(base, h_spec)


def product_process(mu: MarginalOracle, nu: MarginalOracle) -> ProductOracle:
    return ProductOracle(mu, nu)


__all__ = [
    "Alphabet",
    "MarginalOracle",
    "BernoulliOracle",
    "TreeMarkovOracle",
    "CosetIidOracle",
    "PeriodicOrbitOracle",
    "CoinducedOracle",
    "ProductOracle",
    "bernoulli",
    "tree_markov",
    "coset_iid",
    "periodic_orbit",
    "coinduced",
    "product_process",
    "tv_distance",
    "validate_weights",
    "pattern_count",
    "decode_patterns",
]

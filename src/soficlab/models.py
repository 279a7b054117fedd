"""Pattern counts, good-model combinatorics, and the adjoint shift.

Configurations are arrays of alphabet indices over the vertex set of a sofic
approximation. Their pattern counts are taken over all vertices, each pattern
at the index that `processes._pattern_codes` gives it; a configuration is an
(F, eps)-good model when its empirical F-marginal, the counts over n, is
within TV distance strictly less than eps of the process marginal.

Exact enumeration keeps every good configuration as one integer, its
`config_codes` code, and returns the codes sorted: `GoodModelCount.codes`.
Rows are decoded only when `GoodModelCount.configs` is read, and E3's
inclusion check (`projections_outside`) works on the codes alone, so |X|^|V|
must fit in int64. A one-element window {g} is decided by letter
type: sigma^g is a bijection, so the pattern counts are the letter counts, and
the good set is built from the types of two halves of the vertex set, which
meet in the middle. Any other window goes through a depth-first branch and
bound over X^V. Vertices are assigned one at a time; the pattern of a vertex
is final once its whole window image is assigned. With t = mu_F, the final TV
of a complete configuration with pattern counts c is P - (1 - sum(t)) / 2,
where P is sum_p max(0, c_p/n - t_p), since every vertex ends with exactly one
pattern. Counts only grow as vertices close, so P is at least the running
excess

    A = sum_p max(0, c_p/n - t_p)

over the counts c of the patterns already final. A vertex that is still open
adds more when it closes. When pattern p closes on a row that already holds s
copies of it, A rises by rise[p, s] = max(0, (s+1)/n - t_p) - max(0, s/n - t_p),
and rise[p, s] does not decrease in s, since max(0, x - t_p) is convex in x.
So an open vertex adds at least rise[p, 0] = max(0, 1/n - t_p) for the pattern
p it ends with, and p agrees with the letters of its window already assigned.
Its floor is the least rise[p, 0] over those p, and every open vertex closes
once, so P is at least the bound

    B = A + sum over open vertices v of floor(v),

and the sum may leave out any vertices, since floors are not negative. The
search sums the floors of the open vertices that an assigned vertex reaches.

With cut = eps + (1 - sum(t)) / 2 + PRUNE_SLACK, where PRUNE_SLACK covers the
float rounding of B and of the exact test, a partial configuration is pruned
when B >= cut. The floors are one table over the windows coded in radix
|X| + 1, where the letter |X| marks an unassigned vertex. It is built when
|X| < 256, so that uint8 rows hold the marker, and (|X| + 1)^|F| is at most
`processes.PATTERN_CAP`; otherwise the search prunes on A alone, a weaker
bound that gives the same set. At full depth every pattern is final, so
B = A = P, and by the same rounding argument a configuration with
A < cut - 2 * PRUNE_SLACK is good. Only those in the band between go through
the strict float test ``TV < eps`` of the flat scan, so the decisions at float
ties are those of the flat scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .groups import Element, Window
from .processes import (
    PATTERN_CAP,
    MarginalOracle,
    _decode_codes,
    _pattern_codes,
    _tv_rows,
    decode_patterns,
    pattern_count,
    validate_weights,
)
from .randomness import categorical, stream
from .sofic import SoficMap

ENUM_BUDGET = 1 << 26
ENUM_ROWS = 1 << 13  # frontier slice cap of the branch and bound
PRUNE_SLACK = 1e-9
KERNEL_CELLS = 1 << 19  # rows x max(npat, |V|) of one slice of `_block_counts` and `_good_mask`
CODE_LIMIT = (1 << 63) - 1  # the largest int64: no configuration code may exceed it
CHUNK_PATTERNS = 1 << 16  # the most pair patterns of one `projections_outside` chunk table


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: int):
        super().__init__(
            f"exact enumeration spans {required} configurations, over the budget of {budget}; "
            "raise it with --budget"
        )


def counts_over_elements(sigma: SoficMap, x, elements: Sequence[Element], base: int) -> np.ndarray:
    """Pattern counts of ((x at sigma^g(v)) for g in elements) over all v.

    `x` is one configuration (|V|,), giving (npat,) counts, or a (rows, |V|)
    block, giving one row of counts per configuration. The element tuple need
    not contain the identity. Divided by n, a row of counts is the empirical
    marginal that the good-model test and the defects compare with mu_F.
    """
    vals = np.asarray(x)
    npat = pattern_count(base, len(elements))
    perms = np.stack([sigma.perm_of(g) for g in elements])
    counts = _block_counts(vals.reshape(-1, sigma.n), perms, base, npat)
    return counts.reshape(vals.shape[:-1] + (npat,))


def good_mask(sigma: SoficMap, mu: MarginalOracle, window: Window, configs, eps: float) -> np.ndarray:
    """Membership of each row of a (rows, |V|) configuration block in
    Omega(F, eps, sigma): the strict test TV < eps of its empirical
    F-marginal against mu_F, made by the kernel of the exact enumeration."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = mu.alphabet.size
    return _good_mask(
        np.asarray(configs), sigma.window_perms(window), base, pattern_count(base, len(window)),
        mu.marginal_elems(window.elements), sigma.n, eps,
    )


def config_codes(configs: np.ndarray, base: int) -> np.ndarray:
    """Each row of a (rows, |V|) configuration block as one integer, vertex 0
    most significant, by `processes._pattern_codes`: equal rows share a code,
    so membership in an enumerated set is a lookup in a table over codes."""
    return _pattern_codes(configs.T, range(configs.shape[1]), base)


def projections_outside(codes, x_codes, y_codes, nx: int, ny: int, n: int) -> int:
    """The number of pair configurations over n vertices, letter x * ny + y
    at each vertex, whose x projection is not among `x_codes` or whose y
    projection is not among `y_codes`. All three hold `config_codes` codes,
    as `GoodModelCount.codes` does; no row is decoded.

    Each factor's codes become a boolean table over its |X|^n codes, no larger
    than the pair space. A pair code is split into chunks of c digits, with
    (nx * ny)^c <= CHUNK_PATTERNS and the leftover high digits in the first
    chunk: the decode of `processes._decode_codes` in radix (nx * ny)^c, one
    division per chunk. For each chunk, two tables over its pair patterns
    (`_chunk_tables`) give the x and y codes that the chunk adds to the
    projections. The codes are taken serially in slices of KERNEL_CELLS / n,
    which keep each slice's chunks and projections in cache.
    """
    inside = []
    for factor, base in ((x_codes, nx), (y_codes, ny)):
        table = np.zeros(base**n, dtype=bool)
        table[factor] = True
        inside.append(table)
    width = 1
    while width < n and (nx * ny) ** (width + 1) <= CHUNK_PATTERNS:
        width += 1
    radix = (nx * ny) ** width
    chunks = _chunk_tables(nx, ny, n, width)

    def outside(part: np.ndarray) -> int:
        rows, x, y = part.size, 0, 0
        for j, (x_of, y_of) in enumerate(chunks):
            chunk = part
            if j < len(chunks) - 1:
                part = part // radix
                chunk = chunk - part * radix  # the remainder by subtraction: cheaper than divmod
            x = x + x_of[chunk]
            y = y + y_of[chunk]
        return rows - int(np.count_nonzero(inside[0][x] & inside[1][y]))

    pairs = np.asarray(codes, dtype=np.int64)
    step = max(1, KERNEL_CELLS // n)
    return sum(outside(pairs[lo : lo + step]) for lo in range(0, pairs.size, step))


@functools.lru_cache(maxsize=1)
def _chunk_tables(nx: int, ny: int, n: int, width: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """For each chunk of `width` pair digits of an n-digit pair code, least
    significant first and the leftover high digits last, the x and y codes
    that the chunk adds to the projections, over its (nx * ny)^length
    patterns: in C order over the axes (x_0, y_0, x_1, y_1, ...) a pair
    pattern's index is its code, and the x part of that index is the code of
    its x projection. E3 checks instances of one size and alphabet in a row,
    so the tables of the most recent call are kept, read-only."""
    chunks = []
    for lo in range(0, n, width):
        length = min(width, n - lo)
        tables = []
        for base, axes in ((nx, (nx, 1)), (ny, (1, ny))):
            codes = np.arange(base**length).reshape(axes * length)
            table = np.broadcast_to(codes, (nx, ny) * length).reshape(-1) * base**lo
            table = table.astype(np.min_scalar_type(base**n - 1))
            table.setflags(write=False)
            tables.append(table)
        chunks.append((tables[0], tables[1]))
    return tuple(chunks)


@dataclass
class GoodModelCount:
    count: int
    log_count_nats: float
    codes: Optional[np.ndarray] = None  # sorted int64 `config_codes` of the exact enumeration
    standard_error: Optional[float] = None
    # (|X|, |V|) of `codes`, set by `enumerate_good_models`
    _layout: Tuple[int, int] = field(default=(0, 0), init=False, repr=False)

    @property
    def configs(self) -> Optional[np.ndarray]:
        """The (count, |V|) uint8 rows of `codes`, in lexicographic order with
        vertex 0 most significant, decoded on each read."""
        return None if self.codes is None else _decode_codes(self.codes, *self._layout)


def _block_counts(block: np.ndarray, perms: np.ndarray, base: int, npat: int) -> np.ndarray:
    """Pattern counts of the rows of a (rows, |V|) letter block as one
    C-contiguous (rows, npat) int64 array, (0, npat) for an empty block; any
    integer letter dtype is accepted. The rows are counted serially in slices
    of KERNEL_CELLS cells, which keep each slice's code and histogram arrays
    in cache, into one preallocated array.

    A one-element window {g} has the letter counts of each row as its pattern
    counts, since sigma^g is a bijection of V: they are counted on the
    row-major slice, with no gather, by one count of the nonzero letters of a
    binary slice, else by one bincount with a row offset of |X|. Any other
    window transposes the slice to vertex-major in the code dtype, so that
    each window image gathers whole contiguous rows, codes them by
    `processes._pattern_codes` and histograms them by one bincount with a row
    offset of npat."""
    counts = np.empty((block.shape[0], npat), dtype=np.int64)
    step = max(1, KERNEL_CELLS // max(npat, block.shape[1]))
    for lo in range(0, block.shape[0], step):
        rows, out = block[lo : lo + step], counts[lo : lo + step]
        if len(perms) == 1 and base == 2:
            out[:, 1] = np.count_nonzero(rows, axis=1)
            out[:, 0] = rows.shape[1] - out[:, 1]
            continue
        if len(perms) == 1:
            codes = rows + np.arange(0, rows.shape[0] * base, base)[:, None]
        else:
            sub = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(npat - 1))
            codes = _pattern_codes(sub, perms, base) + np.arange(0, sub.shape[1] * npat, npat)
        out[:] = np.bincount(codes.ravel(), minlength=out.size).reshape(-1, npat)
    return counts


def _good_mask(
    block: np.ndarray,
    perms: np.ndarray,
    base: int,
    npat: int,
    target: np.ndarray,
    n: int,
    eps: float,
) -> np.ndarray:
    """Strict TV test per row, `tv_distance(counts / n, target) < eps` through
    its array form, one `_block_counts` slice at a time, so that the counts
    and their float temporaries stay slice-sized. Each row's TV is a 1-D
    call's, so the decisions at float ties (the E5/E6 epsilons) do not depend
    on the code layout, the dtype or the slice a row falls in."""
    good = np.empty(block.shape[0], dtype=bool)
    step = max(1, KERNEL_CELLS // max(npat, block.shape[1]))
    for lo in range(0, block.shape[0], step):
        counts = _block_counts(block[lo : lo + step], perms, base, npat)
        good[lo : lo + step] = _tv_rows(counts / float(n), target) < eps
    return good


def _vertex_order(perms: np.ndarray) -> List[int]:
    """Greedy assignment order for the branch and bound: each step assigns the
    vertex that completes the most window images, ties to the smallest index."""
    n = perms.shape[1]
    # member[v, u] = 1: vertex u is in the window image of v (small integers,
    # exact in float64, where the product below is fastest)
    member = np.zeros((n, n))
    member[np.arange(n), perms] = 1.0
    columns = member.T.copy()
    missing = member.sum(axis=1)  # unassigned vertices of each image
    taken = np.zeros(n)  # n + 1 once assigned, so that a free vertex wins
    order: List[int] = []
    for _ in range(n):
        best = int(np.argmax((missing == 1.0) @ member - taken))
        taken[best] = n + 1
        missing -= columns[best]
        order.append(best)
    return order


def enumerate_good_models(
    sigma: SoficMap,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    budget: int = ENUM_BUDGET,
) -> GoodModelCount:
    """Omega(F, eps, sigma): its configurations as sorted int64 codes (the
    codes of `config_codes`, so code order is lexicographic order with vertex
    0 most significant), and their count.

    |X|^|V| is checked before any work: against CODE_LIMIT, which no budget
    lifts, since every configuration of X^V must have an int64 code, and
    against the budget. A one-element
    window is decided by letter type (`_type_class_models`); any other goes
    through the branch and bound of the module docstring. Either way each
    decision is the strict TV test of the flat scan, so the set is the one
    that testing every point of X^V gives.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = mu.alphabet.size
    total = base**sigma.n
    if total > CODE_LIMIT:
        raise ValueError(
            f"exact enumeration spans {base}^{sigma.n} configurations, over the {CODE_LIMIT} (2^63 - 1) "
            "that int64 configuration codes hold; no budget lifts this limit"
        )
    if total > budget:
        raise BudgetExceededError(total, budget)
    target = mu.marginal_elems(window.elements)
    if len(window) == 1:
        codes = _type_class_models(base, sigma.n, target, eps)
    else:
        codes = _branch_and_bound(sigma.window_perms(window), base, target, sigma.n, eps)
    log = math.log(codes.size) if codes.size else float("-inf")
    got = GoodModelCount(codes.size, log, codes)
    got._layout = (base, sigma.n)
    return got


def _type_class_models(base: int, n: int, target: np.ndarray, eps: float) -> np.ndarray:
    """The sorted codes of the good configurations of a one-element window
    {g}, by letter type.

    sigma^g is a bijection of V, so the pattern counts of x are its letter
    counts, and membership depends on the letter type alone. The vertices are
    split into a prefix of h = n // 2 and a suffix, each decoded in full and
    grouped by letter type. Each sum of a prefix type and a suffix type is
    decided by the row `_good_mask` computes for it, `_tv_rows(counts / n,
    target) < eps`, so the decisions at float ties are the flat scan's.
    Prefix i and suffix j make the code i * |X|^(n - h) + j, so the codes
    come out prefix-major, each prefix followed by its good suffixes in
    ascending order: sorted. Beside the output, this holds the half rows and
    one block of good suffix codes per prefix type, no longer than the output
    of any prefix of that type; no output row is made.
    """
    h = n // 2
    prefix, suffix = decode_patterns(base, h), decode_patterns(base, n - h)

    def types(half: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
        # the letter types of a half, by one integer each: the counts in radix size + 1
        counts = _block_counts(half, np.arange(size)[None, :], base, base)
        key = _pattern_codes(np.ascontiguousarray(counts.T, dtype=np.min_scalar_type(size)), range(base), size + 1)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return counts[first], inverse

    (ptypes, pinv), (stypes, sinv) = types(prefix, h), types(suffix, n - h)
    step = max(1, KERNEL_CELLS // (len(stypes) * base))
    good = np.concatenate([
        _tv_rows((ptypes[lo : lo + step, None, :] + stypes).reshape(-1, base) / float(n), target) < eps
        for lo in range(0, len(ptypes), step)
    ]).reshape(len(ptypes), len(stypes))
    suffix_type = np.min_scalar_type(len(suffix) - 1)
    blocks = [np.flatnonzero(good[t, sinv]).astype(suffix_type) for t in range(len(ptypes))]
    sizes = np.array([len(block) for block in blocks])[pinv]
    codes = np.repeat(np.arange(len(prefix), dtype=np.int64) * len(suffix), sizes)
    codes += np.concatenate([blocks[t] for t in pinv.tolist()])
    return codes


@functools.lru_cache(maxsize=1)
def _open_floor(rise0: bytes, base: int, m: int) -> np.ndarray:
    """The floors of the open-vertex bound (module docstring), built by one
    min per window position from the float64 bytes of rise0.

    floor[c] is the least rise0[p] over the patterns p that agree with c, a
    window coded in radix base + 1 whose digit `base` marks an unassigned
    vertex. Every open, touched window is coded: one that agrees with a
    pattern whose rise0 is 0 has floor exactly 0.0 and adds nothing.

    E5 and E6 each search ten approximations of one size with one target, so
    the table of the most recent call is kept, read-only: at most PATTERN_CAP
    floors, which that call holds anyway."""
    floor = np.frombuffer(rise0).reshape((base,) * m)
    for axis in range(m):
        floor = np.concatenate([floor, floor.min(axis=axis, keepdims=True)], axis=axis)
    floor = floor.ravel()
    floor.setflags(write=False)
    return floor


def _branch_and_bound(perms: np.ndarray, base: int, target: np.ndarray, n: int, eps: float) -> np.ndarray:
    """The sorted codes of the good configurations of the window whose
    (|F|, |V|) permutations are `perms`, by the branch and bound of the module
    docstring. Configurations are pruned at `cut`; complete ones are accepted below
    cut - 2 * PRUNE_SLACK, and only those in the band between get the strict
    TV test of the flat scan."""
    m = perms.shape[0]
    npat = pattern_count(base, m)
    order = _vertex_order(perms)
    cut = eps + 0.5 * (1.0 - float(target.sum())) + PRUNE_SLACK
    accept = cut - 2 * PRUNE_SLACK
    code_type = np.min_scalar_type(npat - 1)
    seen_type = np.min_scalar_type(n)  # holds seen + 1 <= n
    # rise[p, s]: the step of A when pattern p closes on a row with s earlier copies
    frac = np.arange(n + 1) / float(n)
    rise = np.maximum(0.0, frac[1:] - target[:, None]) - np.maximum(0.0, frac[:-1] - target[:, None])
    # the open-vertex bound marks an unassigned vertex by the letter `base`,
    # which uint8 rows hold below 256, and gathers (|X| + 1)^|F| floors
    bounded = base < 256 and (base + 1) ** m <= PATTERN_CAP
    radix = base + 1 if bounded else base
    # to_pat[c]: the pattern of a window coded c in radix `radix`, without marker
    to_pat = np.zeros((radix,) * m, dtype=code_type)
    to_pat[(slice(base),) * m] = np.arange(npat).reshape((base,) * m)
    to_pat = to_pat.ravel()
    step = np.empty(n, dtype=np.intp)
    step[order] = np.arange(n)
    span = step[perms]
    first, last, depths = span.min(axis=0), span.max(axis=0), np.arange(n)[:, None]
    # the pattern of v is final at the depth `last` that assigns the last vertex
    # of its image; from the depth `first` that assigns the first one until
    # then it is open and touched, and it is coded when the floors are built
    touched = (first <= depths) & (last > depths) & bounded
    if bounded:
        floor = _open_floor(rise[:, 0].tobytes(), base, m)
    role = np.where(last == depths, 0, np.where(touched, 1, 2))
    # per depth, the windows to code: closing vertices first, then touched ones
    windows = perms[:, np.argsort(role, axis=1, kind="stable")]
    closes, coded = (role == 0).sum(axis=1).tolist(), (role < 2).sum(axis=1).tolist()
    letters = np.arange(base, dtype=np.uint8)
    kept: List[np.ndarray] = []
    # depth first over frontier slices of at most ENUM_ROWS rows. rows: (b, n)
    # uint8 with order[:depth] assigned and the rest at radix - 1 (the marker,
    # when bounded); codes[:, :closed] holds the final pattern codes, excess
    # the running A. A loop, not a recursive closure: the closure's reference
    # cycle would hold the tables above until the garbage collector ran.
    stack = [(0, np.full((1, n), radix - 1, dtype=np.uint8), np.zeros((1, n), dtype=code_type), np.zeros(1), 0)]
    while stack:
        depth, rows, codes, excess, closed = stack.pop()
        b = rows.shape[0]
        rows = np.repeat(rows, base, axis=0)
        rows.reshape(b, base, n)[:, :, order[depth]] = letters
        codes = np.repeat(codes, base, axis=0)
        excess = np.repeat(excess, base)
        k, w = closes[depth], coded[depth]
        if w:
            window_codes = _pattern_codes(rows.T, windows[:, depth, :w], radix)
            for code in to_pat[window_codes[:k]]:
                seen = np.zeros(code.shape, dtype=seen_type)
                for j in range(closed):
                    seen += codes[:, j] == code
                excess += rise[code, seen]
                codes[:, closed] = code
                closed += 1
        bound = excess
        if w > k:
            bound = excess + floor[window_codes[k:]].sum(axis=0)
        live = bound < cut
        rows, codes, excess = (np.compress(live, a, axis=0) for a in (rows, codes, excess))
        if depth < n - 1:
            stack.extend(
                (depth + 1, rows[lo : lo + ENUM_ROWS], codes[lo : lo + ENUM_ROWS], excess[lo : lo + ENUM_ROWS], closed)
                for lo in reversed(range(0, rows.shape[0], ENUM_ROWS))
            )
            continue
        # every pattern is final, so excess is P (module docstring)
        good = excess < accept
        band = ~good
        if band.any():
            good[band] = _good_mask(np.compress(band, rows, axis=0), perms, base, npat, target, n, eps)
        kept.append(np.compress(good, rows, axis=0))
    if not kept:
        return np.zeros(0, dtype=np.int64)
    found = config_codes(np.concatenate(kept), base).astype(np.int64)
    found.sort()  # depth first meets the rows in the lexicographic order of `order`
    return found


MC_CHUNK = 1 << 14


def count_good_models_mc(
    sigma: SoficMap,
    mu: MarginalOracle,
    window: Window,
    eps: float,
    samples: int,
    seed: int,
) -> GoodModelCount:
    """Hit-or-miss estimate of |Omega(F, eps, sigma)| from uniform draws.

    Draws x uniformly from X^V in fixed-size chunks, one named substream per
    chunk, and scales the fraction p of good draws by |X|^|V|. The count is
    rounded half up in exact integers, so it stays exact past the float
    range, where the standard error |X|^|V| sqrt(p(1 - p) / (samples - 1))
    is inf unless p is 1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    base = mu.alphabet.size
    target = mu.marginal_elems(window.elements)
    perms = sigma.window_perms(window)
    npat = pattern_count(base, len(window))
    n = sigma.n
    uniform = np.full(base, 1.0 / base)
    hits = 0
    for ci, lo in enumerate(range(0, samples, MC_CHUNK)):
        block = categorical(stream(seed, "mc", ci), uniform, (min(MC_CHUNK, samples - lo), n))
        hits += int(_good_mask(block, perms, base, npat, target, n, eps).sum())
    if hits == 0:
        return GoodModelCount(0, float("-inf"), None, 0.0)
    total, p = base**n, hits / samples
    spread = math.sqrt(p * (1.0 - p) / (samples - 1))
    try:
        se = float(total) * spread
    except OverflowError:  # |X|^|V| is past the float range
        se = math.inf if spread else 0.0
    count = (2 * total * hits + samples) // (2 * samples)  # total * p, rounded half up
    return GoodModelCount(count, n * math.log(base) + math.log(p), None, se)


def _letter_types(n: int, target: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """The letter types of n vertices within reach of eps, as count rows in
    lexicographic order, and the flat scan's decision `_tv_rows(c / n,
    target) < eps` on each full row, so ties decide bit for bit. A type grows
    one letter at a time and is dropped once D reaches 2n(eps + PRUNE_SLACK):
    D is sum_a |c_a - n t_a| over the letters placed plus |rest - n * (mass
    of the other letters)|, at most 2n TV by the triangle inequality whatever
    sum(t) is. D is convex in the next part, so each part runs over one
    interval, and rows that differ only in their last two parts are consecutive."""
    nt, cut = n * target, 2 * n * (eps + PRUNE_SLACK)
    tail = np.append(np.cumsum(nt[::-1])[::-1], 0.0)  # tail[a]: n times the mass of letters a, a + 1, ...
    live = int(abs(n - tail[0]) < cut)
    rows, rem, placed = np.zeros((live, 0), dtype=np.int64), np.full(live, n), np.zeros(live)
    for a in range(target.size - 1):
        # the c with |c - nt[a]| + |rem - c - tail[a + 1]| < cut - placed: the open interval
        # mid -/+ half, since every row kept so far has D < cut (the root is checked above)
        mid, half = (rem + nt[a] - tail[a + 1]) / 2, (cut - placed) / 2
        lo = np.maximum(np.floor(mid - half) + 1, 0).astype(np.int64)
        reps = np.maximum(np.minimum(np.ceil(mid + half) - 1, rem) - lo + 1, 0).astype(np.int64)
        head = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - lo, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), head])
        rem = np.repeat(rem, reps) - head
        placed = np.repeat(placed, reps) + np.abs(head - nt[a])
    types = np.column_stack([rows, rem])
    return types, _tv_rows(types / float(n), target) < eps


def letter_frequency_count(weights: Sequence[float], vertices: int, eps: float) -> GoodModelCount:
    """Exact |Omega({e}, eps, sigma)| for a product measure, by letter type.

    For F = {e} membership depends only on the letter counts, so the count is
    a sum of multinomial coefficients over the good types. `_letter_types`
    walks only the types within reach of eps and decides each by
    `tv_distance`'s row-wise form, as in the exhaustive scan, so the two
    paths make bitwise-identical decisions. The weights must pass
    `validate_weights` and are taken as given, not renormalized.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    validate_weights(weights)
    w = np.asarray(weights, dtype=np.float64)
    types, good = _letter_types(vertices, w, eps)
    # types that differ only in their last two parts are consecutive rows, the
    # second-to-last part c stepping lo..hi: step comb(rem, c) along them. A
    # zero first part gives a one-letter type a second-to-last part.
    types = np.column_stack([np.zeros(len(types), dtype=np.int64), types])
    starts = np.flatnonzero(np.r_[True, (types[1:, :-2] != types[:-1, :-2]).any(axis=1)][: len(types)])
    firsts = types[starts]
    lefts = vertices - np.cumsum(firsts, axis=1) + firsts  # the vertices left before each part
    count, good, bounds = 0, good.tolist(), [*starts.tolist(), len(types)]
    for start, stop, (*head, lo, last), left in zip(bounds, bounds[1:], firsts.tolist(), lefts.tolist()):
        rem = lo + last
        inner, coeff = 0, math.comb(rem, lo)
        for c in range(lo, lo + stop - start):
            if good[start + c - lo]:
                inner += coeff
            coeff = coeff * (rem - c) // (c + 1)
        count += inner * math.prod(map(math.comb, left, head))
    log = math.log(count) if count > 0 else float("-inf")
    return GoodModelCount(count, log)


def adjoint_shift(st: SoficMap, h: Element, x) -> np.ndarray:
    """rho^h on configurations over V x W: permute columns by tau^{h^{-1}}.
    `x` is one configuration (|V x W|,) or a (..., |V x W|) block of them."""
    if st.product_of is None:
        raise ValueError("adjoint_shift needs a product sofic approximation")
    left, right = st.product_of
    vals = np.ascontiguousarray(x, dtype=np.uint8)
    if vals.shape[-1] != st.n:
        raise ValueError("configuration length must equal |V x W|")
    tw = right.perm_of(right.group.inverse(h))
    grid = vals.reshape(vals.shape[:-1] + (left.n, right.n))
    return grid[..., tw].reshape(vals.shape)


__all__ = [
    "GoodModelCount",
    "BudgetExceededError",
    "counts_over_elements",
    "good_mask",
    "config_codes",
    "projections_outside",
    "enumerate_good_models",
    "count_good_models_mc",
    "letter_frequency_count",
    "adjoint_shift",
    "ENUM_BUDGET",
]

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import models, randomness
from soficlab.groups import GroupSpec, Window, coind_group
from soficlab.models import (
    KERNEL_CELLS,
    MC_CHUNK,
    PRUNE_SLACK,
    BudgetExceededError,
    adjoint_shift,
    config_codes,
    count_good_models_mc,
    counts_over_elements,
    enumerate_good_models,
    good_mask,
    letter_frequency_count,
    _block_counts,
    _good_mask,
)
from soficlab.processes import _pattern_codes, bernoulli, coset_iid, decode_patterns, product_process, tree_markov, tv_distance
from soficlab.sofic import partitioned_random, product, quotient_map, random_uniform

Z = GroupSpec.integers()
F2 = GroupSpec.free(2)
COIND = coind_group()


def test_empirical_distribution_constant():
    sigma = quotient_map(Z, 4)
    counts = counts_over_elements(sigma, [0, 0, 0, 0], ((),), 2)
    np.testing.assert_array_equal(counts, [4, 0])
    np.testing.assert_allclose(counts / float(sigma.n), [1.0, 0.0])


def test_empirical_distribution_half():
    sigma = quotient_map(Z, 4)
    counts = counts_over_elements(sigma, [0, 0, 1, 1], ((),), 2)
    np.testing.assert_allclose(counts / float(sigma.n), [0.5, 0.5])
    assert counts.sum() == 4


def test_empirical_distribution_alternating_pair():
    sigma = quotient_map(Z, 4)
    counts = counts_over_elements(sigma, [0, 1, 0, 1], ((), (1,)), 2)
    # every vertex sees either 01 or 10
    np.testing.assert_allclose(counts / float(sigma.n), [0.0, 0.5, 0.5, 0.0])
    # a block gives one row of counts per configuration
    block = np.array([[0, 1, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)
    rows = counts_over_elements(sigma, block, ((), (1,)), 2)
    np.testing.assert_array_equal(rows, [counts_over_elements(sigma, x, ((), (1,)), 2) for x in block])
    np.testing.assert_array_equal(rows[0], counts)


def test_good_mask_rows():
    sigma = quotient_map(Z, 4)
    mu = bernoulli((0.5, 0.5), Z)
    W = Window(Z, [()])
    rows = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]])
    assert good_mask(sigma, mu, W, rows[:1], 1.1)[0]
    assert good_mask(sigma, mu, W, rows, 0.3).tolist() == [False, True, True]
    with pytest.raises(ValueError):
        good_mask(sigma, mu, W, rows[1:2], 0.0)


def test_enumerate_counts_fair_coin():
    sigma = quotient_map(Z, 4)
    mu = bernoulli((0.5, 0.5), Z)
    got = enumerate_good_models(sigma, mu, Window(Z, [()]), 0.3)
    assert got.count == 14
    assert got.log_count_nats == pytest.approx(np.log(14))
    assert got.configs.shape == (14, 4)


def test_enumerate_counts_biased_coin():
    sigma = quotient_map(Z, 4)
    mu = bernoulli((0.75, 0.25), Z)
    got = enumerate_good_models(sigma, mu, Window(Z, [()]), 0.3)
    assert got.count == 11


def test_enumerate_large_eps_is_everything():
    sigma = quotient_map(Z, 4)
    mu = bernoulli((0.5, 0.5), Z)
    got = enumerate_good_models(sigma, mu, Window(Z, [()]), 2.0)
    assert got.count == 16
    expect = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
    np.testing.assert_array_equal(got.configs, expect)


@pytest.mark.parametrize("n", [63, 64])
def test_enumerate_refuses_spaces_codes_cannot_hold(monkeypatch, n):
    """|X|^|V| over 2^63 - 1 has no int64 code for every configuration: it is
    refused before any search, under any budget, with its own message; just
    below the limit the budget decides."""

    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(models, "_type_class_models", refuse)
    sigma, mu = quotient_map(Z, n), bernoulli((0.5, 0.5), Z)
    with pytest.raises(ValueError, match=r"2\^63 - 1") as exc:
        enumerate_good_models(sigma, mu, Window(Z, [()]), 0.3, budget=1 << 80)
    assert not isinstance(exc.value, BudgetExceededError)
    assert f"2^{n} configurations" in str(exc.value) and "no budget" in str(exc.value)
    with pytest.raises(BudgetExceededError):
        enumerate_good_models(quotient_map(Z, 62), mu, Window(Z, [()]), 0.3)


def test_enumerate_budget_refusal():
    sigma = quotient_map(Z, 5)
    mu = bernoulli((0.5, 0.5), Z)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_good_models(sigma, mu, Window(Z, [()]), 0.3, budget=16)
    assert "spans 32 configurations" in str(exc.value)
    assert "budget" in str(exc.value)
    assert "count_good_models_mc" not in str(exc.value)


class _ScaledOracle:
    """A process marginal times a constant: its target mass is not 1, which
    the pruning bound must absorb through its signed (1 - sum(t)) / 2 term."""

    def __init__(self, mu, scale):
        self.alphabet = mu.alphabet
        self._mu = mu
        self._scale = scale

    def marginal_elems(self, elements):
        return self._mu.marginal_elems(elements) * self._scale


def _assert_same_set(got, expect, base):
    """An enumerated set against the flat scan's rows: its codes are the
    sorted int64 `config_codes` of those rows, and its rows decode to them."""
    assert got.count == expect.shape[0]
    assert got.codes.dtype == np.int64
    np.testing.assert_array_equal(got.codes, np.sort(config_codes(expect, base).astype(np.int64)))
    assert got.configs.dtype == np.uint8 and got.configs.shape == expect.shape
    np.testing.assert_array_equal(got.configs, expect)


def _flat_scan(sigma, mu, window, eps):
    """Reference: every point of X^V, in lexicographic order, through the strict TV test."""
    base = mu.alphabet.size
    rows = np.array(list(itertools.product(range(base), repeat=sigma.n)), dtype=np.uint8)
    target = mu.marginal_elems(window.elements)
    good = _good_mask(rows, sigma.window_perms(window), base, base ** len(window), target, sigma.n, eps)
    return rows[good]


def _float_tv(sigma, mu, window, x):
    """TV of one configuration by the float expression of the exact test."""
    counts = counts_over_elements(sigma, x, window.elements, mu.alphabet.size)[None, :]
    target = mu.marginal_elems(window.elements)
    return float(0.5 * np.abs(counts / float(sigma.n) - target[None, :]).sum(axis=1)[0])


@given(
    st.sampled_from(["Z-r1", "F2-r0", "F2-r1", "coset-r1"]),
    st.integers(2, 4),
    st.integers(3, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.93, 1.07]),
)
@settings(max_examples=80, deadline=None)
def test_enumerate_matches_flat_scan(shape, base, n, seed, scale):
    """The branch and bound against every point of X^V, rows and codes. The
    coset-iid shape (E5/E6's window, |V| = 4, 8 or 12) has a marginal of
    sparse support, where the floors of the open vertices prune most rows."""
    n = min(n, {2: 8, 3: 7, 4: 6}[base])  # at most 4096 rows for the flat reference
    gen = np.random.default_rng(seed)
    if shape == "Z-r1":
        group, sigma, radius = Z, quotient_map(Z, n), 1
    elif shape == "coset-r1":
        group, sigma, radius = COIND, partitioned_random(1 + n % 3, seed), 1
    else:
        group, sigma, radius = F2, random_uniform(F2, n, seed), int(shape[-1])
    window = Window(group, group.ball(radius))
    n = sigma.n
    if shape == "coset-r1":
        mu = coset_iid(gen.dirichlet(np.ones(2)), group)
    elif base == 4 and gen.random() < 0.5:
        p, q = 0.15 + 0.7 * gen.random(2)
        chain = tree_markov([[1 - p, p], [q, 1 - q]], [q / (p + q), p / (p + q)], group)
        mu = product_process(chain, bernoulli(gen.dirichlet(np.ones(2)), group))
    else:
        mu = bernoulli(gen.dirichlet(np.ones(base)), group)
    base = mu.alphabet.size
    if scale != 1.0:
        mu = _ScaledOracle(mu, scale)
    # ties: the float TV of drawn configurations, the next float above it, and
    # the edges of the band in which full-depth rows get the strict test
    drawn = [gen.integers(0, base, size=n) for _ in range(3)]
    tvs = [_float_tv(sigma, mu, window, x) for x in drawn]
    edges = [t + k * PRUNE_SLACK for t in tvs for k in (-2.0, -0.5, 0.5, 2.0)]
    for eps in sorted({*tvs, *(np.nextafter(t, 2.0) for t in tvs), *edges, 0.35}):
        if eps <= 0:
            continue
        expect = _flat_scan(sigma, mu, window, eps)
        got = enumerate_good_models(sigma, mu, window, eps)
        _assert_same_set(got, expect, base)
        members = {tuple(row) for row in expect.tolist()}
        for x in drawn:
            assert good_mask(sigma, mu, window, x[None, :], eps)[0] == (tuple(x.tolist()) in members)


def _single_window(g):
    """The one-element window {g}. `Window` puts the identity first, so it
    builds no such window for g other than e; the letter-type path of
    `enumerate_good_models` holds for any g, since sigma^g is a bijection."""
    window = object.__new__(Window)
    window.elements = (g,)
    return window


@given(
    st.sampled_from([(), (1,), (1, 2)]),
    st.integers(2, 4),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.93]),
)
@settings(max_examples=60, deadline=None)
def test_type_path_matches_flat_scan(g, base, n, seed, scale):
    """One-element windows are decided by letter type, meeting in the middle:
    the identity and two other elements of F2, n = 1, odd n (halves of
    unequal length) and bases 2-4, at the float TV of drawn rows, the next
    float above it and an eps (the least TV of X^V) that leaves the set empty.
    The codes are built from prefix and suffix codes, rows and codes both
    checked."""
    n = min(n, {2: 12, 3: 7, 4: 6}[base])  # at most 4096 rows for the flat reference
    gen = np.random.default_rng(seed)
    sigma = random_uniform(F2, n, seed)
    window = _single_window(g)
    mu = bernoulli(gen.dirichlet(np.ones(base)), F2)
    if scale != 1.0:
        mu = _ScaledOracle(mu, scale)
    flat = np.array(list(itertools.product(range(base), repeat=n)), dtype=np.uint8)
    counts = counts_over_elements(sigma, flat, window.elements, base)
    least = float(np.min(0.5 * np.abs(counts / float(n) - mu.marginal_elems(window.elements)).sum(axis=1)))
    drawn = [gen.integers(0, base, size=n) for _ in range(3)]
    tvs = [_float_tv(sigma, mu, window, x) for x in drawn]
    for eps in sorted({*tvs, *(np.nextafter(t, 2.0) for t in tvs), least, 0.35}):
        if eps <= 0:
            continue
        expect = _flat_scan(sigma, mu, window, eps)
        got = enumerate_good_models(sigma, mu, window, eps)
        _assert_same_set(got, expect, base)
        if eps == least:
            assert got.count == 0 and got.log_count_nats == float("-inf")


def test_type_path_at_e3_pair_shape(monkeypatch):
    """E3's F2 radius-0 pair call at n = 10 on the 4-letter pair alphabet,
    against `_good_mask` over every point of X^V, at E3's eps, at a tie and the
    next float above it; the branch and bound is not reached."""

    def refuse(*args):
        raise AssertionError("a one-element window reached the branch and bound")

    monkeypatch.setattr(models, "_branch_and_bound", refuse)
    sigma = random_uniform(F2, 10, 20260821)
    chain = tree_markov([[0.7, 0.3], [0.45, 0.55]], [0.6, 0.4], F2)
    mu = product_process(bernoulli((0.35, 0.65), F2), chain)
    window = Window(F2, F2.ball(0))
    flat = decode_patterns(4, 10)
    tie = _float_tv(sigma, mu, window, flat[123456])
    for eps in (0.12, 0.24, tie, float(np.nextafter(tie, 2.0))):
        expect = flat[good_mask(sigma, mu, window, flat, eps)]
        got = enumerate_good_models(sigma, mu, window, eps)
        assert got.count > 0
        _assert_same_set(got, expect, 4)


def test_type_path_makes_no_rows(monkeypatch):
    """E3's largest letter-type call, the pair process at |V| = 12 (4^12
    configurations, over two million good), holds its good set as int64
    codes: its peak traced memory stays below the count * |V| bytes that the
    uint8 rows alone would take, and no row is decoded."""

    def refuse(*args):
        raise AssertionError("a configuration was decoded")

    monkeypatch.setattr(models, "_decode_codes", refuse)
    sigma = random_uniform(F2, 12, 20260821)
    mu = product_process(bernoulli((0.45, 0.55), F2), bernoulli((0.6, 0.4), F2))
    window = Window(F2, F2.ball(0))
    enumerate_good_models(sigma, mu, window, 0.12)  # the marginal oracle's cache, before tracing
    tracemalloc.start()
    try:
        got = enumerate_good_models(sigma, mu, window, 0.12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.count > 2_000_000
    assert got.codes.nbytes == 8 * got.count
    assert peak < got.count * sigma.n
    assert (np.diff(got.codes) > 0).all()


@given(st.sampled_from(["Z-r1", "F2-r0", "F2-r1"]), st.integers(2, 3), st.integers(3, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_code_membership_is_good_mask(shape, base, n, seed):
    """Membership of config codes in the codes of an enumerated set decides
    each row as `good_mask` does: drawn rows and kept rows, at the float TV of
    the drawn rows, the next float above it and the edges of the strict-test
    band. The Z-cycle at radius 1 and F2 at radius 0 (E3's shapes) keep the
    vertex order of the identity; F2 at radius 1 is drawn until its order is
    another, so its kept codes are the sorted ones. Kept codes rise strictly
    and decode to the kept rows, whose codes they are."""
    n = min(n, {2: 8, 3: 6}[base])
    gen = np.random.default_rng(seed)
    group, radius = (Z, 1) if shape == "Z-r1" else (F2, int(shape[-1]))
    window = Window(group, group.ball(radius))
    sigma = quotient_map(Z, n) if group is Z else random_uniform(F2, n, seed)
    while shape == "F2-r1" and models._vertex_order(sigma.window_perms(window)) == list(range(n)):
        seed += 1
        sigma = random_uniform(F2, n, seed)
    mu = bernoulli(gen.dirichlet(np.ones(base)), group)
    drawn = gen.integers(0, base, size=(4, n), dtype=np.uint8)
    tvs = [_float_tv(sigma, mu, window, x) for x in drawn]
    edges = [t + k * PRUNE_SLACK for t in tvs for k in (-2.0, -0.5, 0.5, 2.0)]
    outcomes = set()
    for eps in sorted({*tvs, *(np.nextafter(t, 2.0) for t in tvs), *edges}):
        if eps <= 0:
            continue
        got = enumerate_good_models(sigma, mu, window, eps)
        codes, kept = got.codes, got.configs
        assert codes.dtype == np.int64 and (np.diff(codes) > 0).all()
        np.testing.assert_array_equal(config_codes(kept, base), codes)
        block = np.concatenate([drawn, kept[gen.integers(0, len(kept), size=min(len(kept), 4))]])
        member = np.isin(config_codes(block, base), codes)
        np.testing.assert_array_equal(member, good_mask(sigma, mu, window, block, eps))
        outcomes.update(member[: len(drawn)].tolist())
    # the float TV of a drawn row is an eps at which it is not a member, its
    # next float one at which it is
    assert outcomes == {False, True}


@pytest.mark.parametrize(
    "nx, ny, n", [(2, 2, 6), (2, 3, 5), (3, 2, 4), (2, 2, 10), (2, 3, 8), (3, 2, 7), (2, 3, 13), (2, 2, 1)]
)
def test_projections_outside_matches_set_loop(monkeypatch, nx, ny, n):
    """Pair codes with a projection outside its factor codes are counted as a
    loop over Python sets of rows counts them, over many small slices: rows
    inside both, outside one and outside both, and empty pair and factor
    sets. The pair codes are split into chunks of 8 digits (2 x 2 letters),
    6 (2 x 3 and 3 x 2) or, under a smaller chunk table, 1 or 2; so n is one
    chunk, a multiple of the chunk width, or not."""
    monkeypatch.setattr(models, "KERNEL_CELLS", 8 * n)
    gen = np.random.default_rng(nx * 1000 + ny * 100 + n)
    pairs = gen.integers(0, nx * ny, size=(300, n), dtype=np.uint8)
    # the last x row left out, so that at n = 1 some projections are outside
    xs = np.unique(gen.integers(0, nx, size=(40, n), dtype=np.uint8), axis=0)[:-1]
    ys = np.unique(gen.integers(0, ny, size=(40, n), dtype=np.uint8), axis=0)
    # some pair rows whose projections are both inside
    pairs[:20] = xs[gen.integers(0, len(xs), 20)] * ny + ys[gen.integers(0, len(ys), 20)]
    for rows, x_block, y_block in ((pairs, xs, ys), (pairs, xs, ys[:0]), (pairs, xs[:0], ys), (pairs[:0], xs, ys)):
        x_set = {tuple(row) for row in x_block.tolist()}
        y_set = {tuple(row) for row in y_block.tolist()}
        expect = sum(
            tuple(v // ny for v in row) not in x_set or tuple(v % ny for v in row) not in y_set
            for row in rows.tolist()
        )
        codes = [config_codes(block, base).astype(np.int64) for block, base in ((rows, nx * ny), (x_block, nx), (y_block, ny))]
        for chunk_patterns in (1 << 16, 1, 40):
            monkeypatch.setattr(models, "CHUNK_PATTERNS", chunk_patterns)
            assert models.projections_outside(*codes, nx, ny, n) == expect
        assert 0 < expect < len(rows) or not (len(x_block) and len(y_block) and len(rows))


def test_enumerate_sends_only_the_band_to_the_strict_test(monkeypatch):
    """Full-depth rows whose running excess is below the cut by more than
    2 * PRUNE_SLACK are accepted without the strict test; a configuration whose
    TV ties eps is still decided by it, as the flat scan decides it."""
    sigma, mu = quotient_map(Z, 8), bernoulli((0.7, 0.3), Z)
    window = Window(Z, Z.ball(1))
    strict = []

    def spy(block, *args):
        strict.append(np.array(block))
        return _good_mask(block, *args)

    monkeypatch.setattr(models, "_good_mask", spy)
    tie = np.array([0, 0, 1, 0, 0, 0, 1, 0])
    flat = np.array(list(itertools.product((0, 1), repeat=sigma.n)), dtype=np.uint8)
    flat_tvs = np.array([_float_tv(sigma, mu, window, x) for x in flat])
    assert np.abs(flat_tvs - 0.35).min() > 1e-6
    for eps, reaches_strict in ((_float_tv(sigma, mu, window, tie), True), (0.35, False)):
        strict.clear()
        expect = _flat_scan(sigma, mu, window, eps)
        got = enumerate_good_models(sigma, mu, window, eps)
        assert got.count == expect.shape[0] > 0
        np.testing.assert_array_equal(got.configs, expect)
        tested = {tuple(row) for block in strict for row in block.tolist()}
        if reaches_strict:
            assert tuple(tie.tolist()) in tested
        else:
            assert not tested


@pytest.mark.parametrize("shape", ["Z-r1", "F2-r1", "coset-r1"])
def test_search_without_the_floor_table_matches_flat_scan(monkeypatch, shape):
    """With the floor table over the cap, the search prunes on the running
    excess alone and keeps the same set: at a drawn row's TV, the next float
    above it and a wide eps."""
    if shape == "coset-r1":
        group, sigma = COIND, partitioned_random(2, 20260821)
        mu = coset_iid((0.75, 0.25), group)
    else:
        group = Z if shape == "Z-r1" else F2
        sigma = quotient_map(Z, 8) if group is Z else random_uniform(F2, 6, 20260821)
        mu = bernoulli((0.6, 0.3, 0.1) if group is F2 else (0.7, 0.3), group)
    window = Window(group, group.ball(1))
    base, m = mu.alphabet.size, len(window)
    monkeypatch.setattr(models, "PATTERN_CAP", (base + 1) ** m - 1)
    x = np.random.default_rng(7).integers(0, base, size=sigma.n)
    tie = _float_tv(sigma, mu, window, x)
    for eps in (tie, float(np.nextafter(tie, 2.0)), 0.45):
        expect = _flat_scan(sigma, mu, window, eps)
        got = enumerate_good_models(sigma, mu, window, eps)
        assert got.count == expect.shape[0]
        np.testing.assert_array_equal(got.configs, expect)


def test_e5_setup_at_n6_within_the_default_budget():
    """E5's coset window at n = 6 (|V| = 24, 2^24 configurations, inside
    ENUM_BUDGET): the open-vertex floors keep the search small, and every kept
    row passes the strict test."""
    group = coind_group()
    sigma = partitioned_random(6, 20260821)
    mu = coset_iid((0.75, 0.25), group)
    window = Window(group, group.ball(1))
    got = enumerate_good_models(sigma, mu, window, 0.43)
    assert got.count == 56 and got.configs.shape == (56, 24)
    assert good_mask(sigma, mu, window, got.configs, 0.43).all()
    assert (np.diff(got.codes) > 0).all()


def _vertex_order_loop(perms):
    """Reference: the greedy order by Python sets, each step taking the vertex
    that completes the most window images, ties to the smallest index."""
    n = perms.shape[1]
    images = [set(perms[:, v].tolist()) for v in range(n)]
    assigned: set = set()
    open_ = list(range(n))
    order = []
    for _ in range(n):
        best, best_done = -1, []
        for u in range(n):
            if u in assigned:
                continue
            done = [v for v in open_ if images[v] <= assigned | {u}]
            if best < 0 or len(done) > len(best_done):
                best, best_done = u, done
        assigned.add(best)
        order.append(best)
        open_ = [v for v in open_ if v not in best_done]
    return order


def test_vertex_order_matches_set_loop():
    """The vectorized greedy order is the set loop's on F2 at radius 1 and 2,
    the Z-cycle at radius 1 and the coset window, at |V| 3-14 (|V| 4-12 for
    the coset window)."""
    shapes = [
        (F2, 1, lambda n, seed: random_uniform(F2, n, seed)),
        (F2, 2, lambda n, seed: random_uniform(F2, n, seed)),
        (Z, 1, lambda n, seed: quotient_map(Z, n)),
        (COIND, 1, lambda n, seed: partitioned_random(1 + n % 3, seed)),
    ]
    for seed in range(50):
        for group, radius, build in shapes:
            perms = build(3 + seed % 12, seed).window_perms(Window(group, group.ball(radius)))
            assert models._vertex_order(perms) == _vertex_order_loop(perms)


def _good_mask_int64(block, perms, base, npat, target, n, eps):
    """Reference: the int64 row-major kernel that the vertex-major one replaced."""
    rows = block.shape[0]
    step = max(1, (1 << 22) // max(npat, n))
    good = np.empty(rows, dtype=bool)
    for lo in range(0, rows, step):
        sub = block[lo : lo + step]
        b = sub.shape[0]
        codes = np.zeros((b, n), dtype=np.int64)
        for i in range(perms.shape[0]):
            codes = codes * base + sub[:, perms[i]]
        flat = (np.arange(b, dtype=np.int64)[:, None] * npat + codes).ravel()
        counts = np.bincount(flat, minlength=b * npat).reshape(b, npat)
        tvs = 0.5 * np.abs(counts / float(n) - target[None, :]).sum(axis=1)
        good[lo : lo + b] = tvs < eps
    return good


@given(
    st.integers(1, 5),
    st.integers(2, 4),
    st.integers(2, 12),
    st.integers(-1, 2),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_int64_row_major(m, base, n, extra, uniform, seed):
    npat = base**m  # up to 4^5 = 1024
    gen = np.random.default_rng(seed)
    perms = np.stack([gen.permutation(n) for _ in range(m)])
    rows = KERNEL_CELLS // max(npat, n) + extra  # one slice, or just past its boundary
    block = gen.integers(0, base, size=(rows, n))
    target = np.full(npat, 1.0 / npat) if uniform else gen.dirichlet(np.ones(npat))

    def codes_and_tv(row):
        codes = np.zeros(n, dtype=np.int64)
        for i in range(m):
            codes = codes * base + row[perms[i]]
        counts = np.bincount(codes, minlength=npat)[None, :]
        return codes, float(0.5 * np.abs(counts / float(n) - target[None, :]).sum(axis=1)[0])

    codes, _ = codes_and_tv(block[0])
    np.testing.assert_array_equal(_pattern_codes(block[0].astype(np.uint8), perms, base), codes)
    # ties: the float TV of drawn rows, and the next float above it
    drawn = [codes_and_tv(block[r])[1] for r in gen.integers(0, rows, size=3)]
    for eps in sorted({*drawn, *(float(np.nextafter(t, 2.0)) for t in drawn)}):
        expect = _good_mask_int64(block, perms, base, npat, target, n, eps)
        for dtype in (np.uint8, np.int64):
            got = _good_mask(block.astype(dtype), perms, base, npat, target, n, eps)
            np.testing.assert_array_equal(got, expect)


@given(
    st.sampled_from([2, 4, 16, 256]),
    st.integers(1, 40),
    st.integers(1, 30),
    st.sampled_from([np.uint8, np.int64]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_letter_counts_match_the_gather_path(base, rows, n, dtype, seed):
    """The counts of a one-element window {g}, taken on the row-major block,
    equal the gather path's: the window (g, e) coded by `_pattern_codes` with
    its second letter summed out, and a bincount of each row read through
    sigma^g."""
    gen = np.random.default_rng(seed)
    perm = gen.permutation(n)
    block = gen.integers(0, base, size=(rows, n)).astype(dtype)
    got = _block_counts(block, perm[None, :], base, base)
    pairs = _block_counts(block, np.stack([perm, np.arange(n)]), base, base * base)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, pairs.reshape(rows, base, base).sum(axis=2))
    np.testing.assert_array_equal(got, [np.bincount(row[perm], minlength=base) for row in block])


@pytest.mark.parametrize("index", [0, 2])
def test_good_mask_over_sub_slices_matches_is_good_model(index):
    """A block several kernel slices tall, whose rows include the E5/E6 tie
    rows (TV exactly eps) at slice boundaries, gets the decision of testing
    each row alone."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "e5.json").read_text())
    seed, eps = cfg["seeds"][index], cfg["epsilons"][index]
    group = coind_group()
    sigma = partitioned_random(cfg["n"], seed)
    mu = coset_iid(cfg["mu0"], group)
    window = Window(group, group.ball(cfg["radius"]))
    good = enumerate_good_models(sigma, mu, window, eps).configs
    above = enumerate_good_models(sigma, mu, window, float(np.nextafter(eps, 2.0))).configs
    ties = np.array([row for row in above.tolist() if row not in good.tolist()], dtype=np.uint8)
    assert ties.shape[0] >= 1 and good.shape[0] >= 1
    step = KERNEL_CELLS // max(mu.alphabet.size ** len(window), sigma.n)
    block = np.random.default_rng(seed).integers(0, mu.alphabet.size, size=(3 * step + 7, sigma.n), dtype=np.uint8)
    edges = [0, step - 1, step, 2 * step - 1, 2 * step, 3 * step + 6]
    block[edges] = ties[np.arange(len(edges)) % ties.shape[0]]
    block[[1, step + 1, 3 * step]] = good[np.arange(3) % good.shape[0]]
    got = good_mask(sigma, mu, window, block, eps)
    assert got.tolist() == [good_mask(sigma, mu, window, row[None, :], eps)[0] for row in block]
    assert not got[edges].any() and got[[1, step + 1, 3 * step]].all()
    assert good_mask(sigma, mu, window, block[edges], float(np.nextafter(eps, 2.0))).all()


def test_kernels_never_ask_for_the_pool(monkeypatch):
    """The kernels count serially on the caller's thread: with the worker
    pool patched to raise, a block three KERNEL_CELLS slices and 7 rows tall,
    E3's inclusion check over many code slices and an MC count over two
    chunks all run, and an empty block gives (0, npat) counts and a (0,)
    mask."""

    def no_pool():
        raise AssertionError("a kernel asked for the worker pool")

    monkeypatch.setattr(randomness, "_pool", no_pool)
    sigma, mu = random_uniform(F2, 12, 5), bernoulli((0.5, 0.5), F2)
    window = Window(F2, [(), (1,)])
    perms = sigma.window_perms(window)
    step = KERNEL_CELLS // max(4, sigma.n)
    block = np.random.default_rng(5).integers(0, 2, size=(3 * step + 7, sigma.n), dtype=np.uint8)
    counts = counts_over_elements(sigma, block, window.elements, 2)
    codes = 2 * block[:, perms[0]] + block[:, perms[1]]
    np.testing.assert_array_equal(counts, np.stack([(codes == p).sum(axis=1) for p in range(4)], axis=1))
    good = good_mask(sigma, mu, window, block, 0.2)
    target = mu.marginal_elems(window.elements)
    np.testing.assert_array_equal(good, 0.5 * np.abs(counts / float(sigma.n) - target).sum(axis=1) < 0.2)
    assert good.any() and not good.all()
    assert counts_over_elements(sigma, block[:0], window.elements, 2).shape == (0, 4)
    assert good_mask(sigma, mu, window, block[:0], 0.2).shape == (0,)
    # every pair code of 10 vertices: exactly |X| x |Y| of them project inside both sets
    n = 10
    assert 4**n > KERNEL_CELLS // n
    xs, ys = np.arange(0, 2**n, 3), np.arange(0, 2**n, 5)
    assert models.projections_outside(np.arange(4**n), xs, ys, 2, 2, n) == 4**n - xs.size * ys.size
    got = count_good_models_mc(quotient_map(Z, 8), bernoulli((0.5, 0.5), Z), Window(Z, [()]), 0.25, MC_CHUNK + 3000, 5)
    assert 0 < got.count < 2**8


def test_letter_frequency_matches_enumeration():
    assert letter_frequency_count((0.5, 0.5), 4, 0.3).count == 14
    assert letter_frequency_count((0.75, 0.25), 4, 0.3).count == 11
    assert letter_frequency_count((0.5, 0.5), 4, 2.0).count == 16


def _compositions_loop(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions_loop(total - head, parts - 1):
            yield (head,) + rest


def _composition_table(target, n):
    """Reference: every composition of n in lexicographic order as a row, its
    `tv_distance` by one call each, and its multinomial coefficient by one
    product of binomials each."""
    comps, tvs, coeffs = [], [], []
    for comp in _compositions_loop(n, target.size):
        coeff, rem = 1, n
        for c in comp[:-1]:
            coeff *= math.comb(rem, c)
            rem -= c
        comps.append(comp)
        tvs.append(tv_distance(np.asarray(comp, dtype=np.float64) / float(n), target))
        coeffs.append(coeff)
    return np.array(comps), np.array(tvs), coeffs


_LOOP_WEIGHTS = [(0.5, 0.5), (0.75, 0.25), (0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4), (1.0,), (1.0, 0.0)]


@pytest.mark.parametrize(
    "weights, n",
    [pytest.param(w, n, id=f"{n}-weights{i}") for n in (1, 2, 7, 24) for i, w in enumerate(_LOOP_WEIGHTS)]
    + [
        pytest.param(tuple(0.93 * t for t in (0.2, 0.3, 0.5)), 24, id="24-mass093"),
        pytest.param((1 / 16,) * 16, 6, id="6-uniform16"),
    ],
)
def test_letter_frequency_matches_composition_loop(weights, n):
    """Every epsilon of a sweep, each type's exact TV (a tie, which the strict
    test excludes) and the next float above it: the walk's good types are the
    loop's, in its order, and their count is the loop's. A target of mass
    0.93, as `_ScaledOracle` makes, tests the walk's bound where sum(t) != 1;
    the count refuses such weights. 16 letters at n 6 span 54,264 types."""
    w = np.asarray(weights, dtype=np.float64)
    comps, tvs, coeffs = _composition_table(w, n)
    ties = sorted(set(tvs.tolist()) - {0.0})
    step = max(1, len(ties) // 12)
    epsilons = [0.02, 0.1, 0.3, 1.5] + [e for t in ties[::step] for e in (t, float(np.nextafter(t, 2.0)))]
    for eps in epsilons:
        types, good = models._letter_types(n, w, eps)
        np.testing.assert_array_equal(types[good], comps[tvs < eps], err_msg=str(eps))
        if abs(math.fsum(weights) - 1.0) <= 1e-9:
            expect = sum(itertools.compress(coeffs, (tvs < eps).tolist()))
            assert letter_frequency_count(weights, n, eps).count == expect, eps


def test_letter_frequency_memory_follows_the_ball():
    """Four letters at n 256 and eps 0.02 walk the 440 types within reach of
    eps, not the 2,862,209 compositions of 256: the traced peak stays small."""
    tracemalloc.start()
    try:
        got = letter_frequency_count((0.1, 0.2, 0.3, 0.4), 256, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.count > 0
    assert peak < 4 << 20


def test_letter_frequency_point_mass():
    # TV to a point mass is the fraction of disagreeing letters
    got = letter_frequency_count((1.0, 0.0), 6, 0.3)
    assert got.count == 1 + 6
    assert letter_frequency_count((1.0, 0.0), 6, 1 / 12).count == 1
    with pytest.raises(ValueError):
        letter_frequency_count((0.5, 0.5), 4, 0.0)


@given(
    st.integers(3, 6),
    st.integers(1, 9),
    st.sampled_from([0.08, 0.2, 0.35, 0.55]),
)
@settings(max_examples=30, deadline=None)
def test_letter_frequency_agrees_with_scan(n, tenths, eps):
    p = tenths / 10.0
    sigma = quotient_map(Z, n)
    mu = bernoulli((p, 1 - p), Z)
    scan = enumerate_good_models(sigma, mu, Window(Z, [()]), eps)
    assert letter_frequency_count((p, 1 - p), n, eps).count == scan.count


def test_mc_count_trivial_event_is_exact():
    sigma = quotient_map(Z, 4)
    mu = bernoulli((0.5, 0.5), Z)
    got = count_good_models_mc(sigma, mu, Window(Z, [()]), 1.5, 64, seed=7)
    assert got.count == 16
    assert got.standard_error == 0.0


def test_mc_count_within_four_se():
    sigma = quotient_map(Z, 8)
    mu = bernoulli((0.5, 0.5), Z)
    exact = letter_frequency_count((0.5, 0.5), 8, 0.25).count
    got = count_good_models_mc(sigma, mu, Window(Z, [()]), 0.25, 4000, seed=1234)
    assert got.standard_error > 0
    assert abs(got.count - exact) <= 4 * got.standard_error


def test_mc_count_past_the_float_range():
    # 2^1100 configurations: the count stays an exact integer and its log
    # finite, while the SE, past the float range, is inf
    sigma = quotient_map(Z, 1100)
    mu = bernoulli((0.5, 0.5), Z)
    got = count_good_models_mc(sigma, mu, Window(Z, [()]), 0.015, 200, seed=3)
    assert isinstance(got.count, int) and got.count.bit_length() == 1100
    assert math.isfinite(got.log_count_nats)
    assert got.standard_error == math.inf


def test_mc_count_threads_deterministic():
    # the chunks run serially, one named substream each, so a rerun with the
    # same seed reproduces the estimate exactly, across a chunk boundary too
    sigma = quotient_map(Z, 8)
    mu = bernoulli((0.5, 0.5), Z)
    W = Window(Z, [()])
    samples = MC_CHUNK + 3000
    one = count_good_models_mc(sigma, mu, W, 0.25, samples, seed=5)
    two = count_good_models_mc(sigma, mu, W, 0.25, samples, seed=5)
    assert one.log_count_nats == two.log_count_nats
    assert one.standard_error == two.standard_error


def test_mc_count_rejects_bad_inputs():
    sigma = quotient_map(Z, 4)
    mu = bernoulli((0.5, 0.5), Z)
    W = Window(Z, [()])
    with pytest.raises(ValueError):
        count_good_models_mc(sigma, mu, W, 0.3, 1, seed=1)
    with pytest.raises(ValueError):
        count_good_models_mc(sigma, mu, W, 0.0, 100, seed=1)


def test_adjoint_shift_identity_and_swap():
    st_map = product(quotient_map(Z, 3), quotient_map(Z, 2))
    x = np.arange(6, dtype=np.uint8)  # rows (0,1),(2,3),(4,5)
    np.testing.assert_array_equal(adjoint_shift(st_map, (), x), x)
    swapped = adjoint_shift(st_map, (1,), x)
    np.testing.assert_array_equal(swapped, [1, 0, 3, 2, 5, 4])


def test_adjoint_shift_is_an_action():
    st_map = product(quotient_map(Z, 3), quotient_map(Z, 4))
    gen = np.random.default_rng(3)
    x = gen.integers(0, 2, size=12).astype(np.uint8)
    once = adjoint_shift(st_map, (1,), adjoint_shift(st_map, (1,), x))
    twice = adjoint_shift(st_map, (1, 1), x)
    np.testing.assert_array_equal(once, twice)
    back = adjoint_shift(st_map, (-1,), adjoint_shift(st_map, (1,), x))
    np.testing.assert_array_equal(back, x)
    # a block shifts each configuration in it
    block = gen.integers(0, 2, size=(2, 5, 12)).astype(np.uint8)
    shifted = adjoint_shift(st_map, (1,), block)
    assert shifted.shape == block.shape
    rows = [adjoint_shift(st_map, (1,), row) for row in block.reshape(10, 12)]
    np.testing.assert_array_equal(shifted.reshape(10, 12), rows)


def test_adjoint_shift_requires_product():
    sigma = quotient_map(Z, 4)
    with pytest.raises(ValueError):
        adjoint_shift(sigma, (1,), [0, 1, 0, 1])
    st_map = product(quotient_map(Z, 3), quotient_map(Z, 2))
    with pytest.raises(ValueError):
        adjoint_shift(st_map, (1,), [0, 1])


def test_good_sets_shrink_with_window():
    sigma = quotient_map(Z, 6)
    mu = bernoulli((0.5, 0.5), Z)
    small = enumerate_good_models(sigma, mu, Window(Z, [()]), 0.2)
    big = enumerate_good_models(sigma, mu, Window(Z, Z.ball(1)), 0.2)
    small_set = {tuple(row) for row in small.configs}
    big_set = {tuple(row) for row in big.configs}
    assert big_set <= small_set
    assert big.count <= small.count


def test_good_sets_shrink_with_eps():
    sigma = quotient_map(Z, 6)
    mu = bernoulli((0.5, 0.5), Z)
    tight = enumerate_good_models(sigma, mu, Window(Z, [()]), 0.1)
    loose = enumerate_good_models(sigma, mu, Window(Z, [()]), 0.4)
    assert tight.count <= loose.count


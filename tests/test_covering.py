import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.covering import (
    HAMMING_BLOCK,
    ModelMeasure,
    _conflict_masks,
    _partial_cover_exact,
    cov_delta,
    cov_eps_delta,
    pack_delta,
    pack_eps_delta,
    pair_configs,
    pairwise_hamming,
    random_coupling,
)
from soficlab.randomness import stream

CUBE2 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)


def _cube(vertices: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=vertices)), dtype=np.uint8)


def test_hamming_distance_basics():
    a = np.array([[0, 0, 1, 1]])
    assert pairwise_hamming(a, np.array([[0, 0, 1, 1]]))[0, 0] == 0.0
    assert pairwise_hamming(a, np.array([[0, 1, 0, 1]]))[0, 0] == 0.5
    assert pairwise_hamming(np.array([[0, 0]]), np.array([[1, 1]]))[0, 0] == 1.0
    with pytest.raises(ValueError):
        pairwise_hamming(np.array([[0, 0]]), np.array([[0, 0, 0]]))


def test_pairwise_hamming_matches_scalar():
    # more rows than HAMMING_BLOCK, so the blocks and their seam are checked
    gen = np.random.default_rng(0)
    a = gen.integers(0, 3, size=(HAMMING_BLOCK + 44, 7)).astype(np.uint8)
    b = gen.integers(0, 3, size=(4, 7)).astype(np.uint8)
    mat = pairwise_hamming(a, b)
    for i in range(a.shape[0]):
        for j in range(4):
            assert mat[i, j] == pytest.approx((a[i] != b[j]).mean())
    sym = pairwise_hamming(a)
    np.testing.assert_allclose(sym, sym.T)
    np.testing.assert_allclose(np.diag(sym), 0.0)


def test_cov_delta_frozen_values():
    assert cov_delta(CUBE2[:1], 0.1, method="exact").value == 1
    assert cov_delta(CUBE2, 0.5, method="exact").value == 2
    assert cov_delta(CUBE2, 1.0, method="exact").value == 1
    assert cov_delta(CUBE2, 0.1, method="exact").value == 4


def test_pack_delta_strict_separation():
    # packing requires pairwise distance strictly above delta
    assert pack_delta(CUBE2, 0.5, method="exact").value == 2
    assert pack_delta(CUBE2, 1.0, method="exact").value == 1
    assert pack_delta(CUBE2, 0.25, method="exact").value == 4
    assert pack_delta(CUBE2[:1], 0.9, method="exact").value == 1


def test_cov_eps_delta_frozen_values():
    three = np.array([[0], [1], [2]], dtype=np.uint8)
    nu = ModelMeasure.from_support(three, (0.5, 0.3, 0.2))
    assert cov_eps_delta(nu, 0.25, 0.1, centers=three).value == 2
    assert cov_eps_delta(nu, 0.25, 1.0, centers=three).value == 1


def test_exact_methods_need_explicit_support():
    nu = ModelMeasure.iid(4, [0.5, 0.5])
    with pytest.raises(ValueError):
        cov_eps_delta(nu, 0.2, 0.3, centers=_cube(4))


def test_model_measure_validation():
    with pytest.raises(ValueError):
        ModelMeasure.from_support(np.array([[0, 1], [0, 1]], dtype=np.uint8), (0.5, 0.5))
    with pytest.raises(ValueError):
        ModelMeasure.from_support(CUBE2, (0.5, 0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        ModelMeasure.from_support(CUBE2, (0.7, 0.2, 0.2, -0.1))


def test_iid_site_weights_follow_the_atom_weight_rule():
    """Site weights that explicit weights would refuse are refused: the
    sampler and the exact lw path must read one law."""
    for bad in ([0.7, 0.7], [1.2, -0.2], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="site weights"):
            ModelMeasure.iid(4, bad)
    tenths = ModelMeasure.iid(4, np.full(10, 0.1))  # sums to 1 - 2^-53
    assert tenths.site_weights.shape == (10,)


@given(
    st.integers(1, 600)
    .flatmap(lambda k: st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=k, max_size=k))
    .filter(lambda w: sum(w) > 0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_model_measure_sample_matches_searchsorted(raw, seed):
    """`sample` on an explicit support draws the atoms of the old inline
    inverse-CDF search, byte for byte, on either side of 256 atoms."""
    k = len(raw)
    support = ((np.arange(k)[:, None] >> np.arange(10)[None, :]) & 1).astype(np.uint8)
    w = np.asarray(raw) / sum(raw)
    nu = ModelMeasure.from_support(support, w)
    cdf = np.cumsum(nu.weights)
    cdf[-1] = 1.0
    expect = support[np.searchsorted(cdf, stream(seed, "sample").random(300), side="right")]
    np.testing.assert_array_equal(nu.sample(stream(seed, "sample"), 300), expect)


def test_model_measure_sampling_matches_weights():
    three = np.array([[0], [1], [2]], dtype=np.uint8)
    nu = ModelMeasure.from_support(three, (0.5, 0.3, 0.2))
    gen = np.random.default_rng(42)
    draws = nu.sample(gen, 6000)
    freq = np.bincount(draws[:, 0], minlength=3) / 6000.0
    np.testing.assert_allclose(freq, (0.5, 0.3, 0.2), atol=0.03)


def test_model_measure_pairs_row_major():
    nu = ModelMeasure.from_support([[0, 1], [1, 1]], (0.25, 0.75))
    support, weights = nu.pairs(2)
    np.testing.assert_array_equal(support, [[0, 3], [1, 3], [2, 3], [3, 3]])
    np.testing.assert_allclose(weights, [0.0625, 0.1875, 0.1875, 0.5625])
    with pytest.raises(ValueError):
        ModelMeasure.iid(2, (0.5, 0.5)).pairs(2)


def test_pair_configs_row_major():
    xs = np.array([[0, 1], [1, 1]])
    ys = np.array([[1, 0], [0, 1]])
    np.testing.assert_array_equal(pair_configs(xs, ys, 2), [[1, 2], [2, 3]])


def test_random_coupling_marginals():
    w_mu = np.array([0.5, 0.3, 0.2])
    w_nu = np.array([0.25, 0.75])
    plan = random_coupling(99, w_mu, w_nu)
    assert plan.shape == (3, 2)
    assert np.all(plan >= 0)
    np.testing.assert_allclose(plan.sum(axis=1), w_mu, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), w_nu, atol=1e-12)
    np.testing.assert_array_equal(plan, random_coupling(99, w_mu, w_nu))


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.2, 0.35, 0.5]))
@settings(max_examples=25, deadline=None)
def test_set_chain_cov_pack(seed, delta):
    gen = np.random.default_rng(seed)
    pts = np.unique(gen.integers(0, 2, size=(10, 6)).astype(np.uint8), axis=0)
    c_half = cov_delta(pts, delta / 2, method="exact").value
    p_full = pack_delta(pts, delta, method="exact").value
    c_full = cov_delta(pts, delta, method="exact").value
    assert c_half >= p_full >= c_full
    assert cov_delta(pts, delta, method="greedy").value >= c_full
    assert pack_delta(pts, delta, method="greedy").value <= p_full


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_measure_chain_cov_pack(seed):
    gen = np.random.default_rng(seed)
    vertices = 5
    ambient = _cube(vertices)
    idx = gen.choice(ambient.shape[0], size=4, replace=False)
    w = gen.random(4) + 0.1
    nu = ModelMeasure.from_support(ambient[idx], w / w.sum())
    eps, delta = 0.3, 0.4
    c_half = cov_eps_delta(nu, eps, delta / 2, centers=ambient).value
    p_full = pack_eps_delta(nu, eps, delta).value
    c_full = cov_eps_delta(nu, eps, delta, centers=ambient).value
    assert c_half >= p_full >= c_full


def test_cov_result_reports_method():
    assert cov_delta(CUBE2, 0.5, method="exact").method == "exact"
    assert cov_delta(CUBE2, 0.5, method="greedy").method == "greedy"


@pytest.mark.parametrize("method", ["exatc", "auto"])
def test_unknown_method_raises(method):
    for solve in (
        lambda: cov_delta(CUBE2, 0.5, method=method),
        lambda: pack_delta(CUBE2, 0.5, method=method),
    ):
        with pytest.raises(ValueError, match="method"):
            solve()


def _partial_cover_loop(cover, weights, need):
    """Reference: `_partial_cover_exact` as it was with its masks built by a
    Python double loop."""
    c, k = cover.shape
    masses = cover @ weights
    order = np.argsort(-masses, kind="stable")
    masks = []
    seen = set()
    for i in order:
        m = 0
        for j in range(k):
            if cover[i, j]:
                m |= 1 << j
        if m not in seen:
            seen.add(m)
            masks.append(m)
    kept = []
    for m in masks:
        if not any(m | other == other for other in kept):
            kept.append(m)
    masks = kept
    mass_of = {m: sum(weights[j] for j in range(k) if m >> j & 1) for m in masks}
    tops = sorted((mass_of[m] for m in masks), reverse=True)
    if not masks:
        raise ValueError("no candidate center covers any atom")

    def covered_mass(m):
        return sum(weights[j] for j in range(k) if m >> j & 1)

    for size in range(1, len(masks) + 1):

        def dfs(start, chosen, depth):
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

        if dfs(0, 0, 0):
            return size
    raise ValueError("mass target unreachable: total covered mass <= 1 - eps")


@given(st.integers(1, 9), st.integers(1, 20), st.floats(0.0, 0.6), st.floats(0.0, 0.99), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_partial_cover_exact_matches_mask_loop(centres, atoms, density, need, seed):
    gen = np.random.default_rng(seed)
    cover = gen.random((centres, atoms)) < density
    cover[gen.integers(0, centres), gen.integers(0, atoms)] = True
    if gen.random() < 0.3:
        cover[gen.integers(0, centres)] = cover[0]  # a duplicate centre
    weights = gen.dirichlet(np.ones(atoms))
    try:
        expect = _partial_cover_loop(cover, weights, need)
    except ValueError:
        with pytest.raises(ValueError):
            _partial_cover_exact(cover, weights, need)
        return
    assert _partial_cover_exact(cover, weights, need) == expect


def _conflict_loop(dist, delta):
    """Reference: the <=delta adjacency masks as the packing solvers built
    them with a Python double loop."""
    k = dist.shape[0]
    conflict = dist <= delta
    adj = []
    for i in range(k):
        row = 0
        for j in range(k):
            if j != i and conflict[i, j]:
                row |= 1 << j
        adj.append(row)
    return adj


@given(st.integers(1, 70), st.integers(1, 8), st.integers(0, 8), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_conflict_masks_match_loop(k, levels, step, hamming, seed):
    gen = np.random.default_rng(seed)
    if hamming:
        dist = pairwise_hamming(gen.integers(0, 2, size=(k, levels)).astype(np.uint8))
    else:
        dist = gen.integers(0, levels + 1, size=(k, k)) / levels  # not symmetric
    delta = min(step, levels) / levels  # a grid value, so some distances tie with delta
    assert _conflict_masks(dist, delta) == _conflict_loop(dist, delta)

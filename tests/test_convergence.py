import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.convergence import (
    dispersion,
    dq_defect,
    h_average,
    lw_defect,
    models_to_measure,
    pair_vertex_stat,
    quenched_defect,
)
from soficlab.covering import ModelMeasure
from soficlab.groups import GroupSpec, Window
from soficlab.processes import bernoulli, periodic_orbit, product_process, tv_distance
from soficlab.randomness import stream
from soficlab.sofic import product, quotient_map, random_uniform

Z = GroupSpec.integers()


def _orbit_measure(vertices: int) -> ModelMeasure:
    x0 = (np.arange(vertices) % 2).astype(np.uint8)
    x1 = ((np.arange(vertices) + 1) % 2).astype(np.uint8)
    return ModelMeasure.from_support(np.stack([x0, x1]), np.array([0.5, 0.5]))


def test_orbit_defect_triple():
    # two alternating configurations, each a perfect model of the 2-cycle
    # orbit: locally and measure-wise converged, doubly-quenched not at all
    vertices = 16
    sigma = quotient_map(Z, vertices)
    mu = periodic_orbit("01", Z)
    nu = _orbit_measure(vertices)
    ball = Window(Z, Z.ball(1))
    assert lw_defect(sigma, nu, mu, ball, 0.05) == 0.0
    assert quenched_defect(sigma, nu, mu, ball, 0.05) == 0.0
    assert dq_defect(sigma, nu, mu, ball, 0.05) == 1.0


def test_orbit_dispersion_two_clusters():
    vertices = 16
    sigma = quotient_map(Z, vertices)
    mu = periodic_orbit("01", Z)
    nu = _orbit_measure(vertices)
    ea = Window(Z, ((), (1,)))
    pair = product_process(mu, mu)
    pair_nu = ModelMeasure.from_support(*nu.pairs(2))
    target = pair.marginal_elems(ea.elements)
    disp = dispersion(sigma, pair_nu, pair, ea)
    assert disp.cluster_count == 2
    np.testing.assert_allclose(disp.masses, [0.5, 0.5])
    assert all(tv == pytest.approx(0.5) for tv in disp.centroid_tvs(target))
    assert disp.barycentre_tv == pytest.approx(0.0, abs=1e-12)
    js = disp.to_json()
    assert {"clusters", "barycentre", "threshold"} <= js.keys()


def test_pair_vertex_stat_detects_correlation():
    vertices = 64
    sigma = quotient_map(Z, vertices)
    mu = periodic_orbit("01", Z)
    nu = _orbit_measure(vertices)
    ea = Window(Z, ((), (1,)))
    stat = pair_vertex_stat(sigma, nu, mu, ea, 0.2, vertex_pairs=100, seed=7)
    assert stat >= 0.9


def test_product_measure_has_zero_lw():
    vertices = 4
    support = np.array(list(itertools.product((0, 1), repeat=vertices)), dtype=np.uint8)
    w = np.array([0.7, 0.3])
    weights = np.prod(np.where(support == 0, w[0], w[1]), axis=1)
    nu = ModelMeasure.from_support(support, weights)
    sigma = quotient_map(Z, vertices)
    mu = bernoulli((0.7, 0.3), Z)
    assert lw_defect(sigma, nu, mu, Window(Z, [()]), 1e-6) == 0.0


@given(st.integers(6, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_iid_lw_matches_full_support(vertices, seed):
    # small approximations, so that some window images collide; the exact
    # iid path must agree with the explicit product measure on all of X^V
    F2 = GroupSpec.free(2)
    sigma = random_uniform(F2, vertices, seed)
    w = np.array([0.7, 0.3])
    support = np.array(list(itertools.product((0, 1), repeat=vertices)), dtype=np.uint8)
    full = ModelMeasure.from_support(support, np.prod(w[support], axis=1))
    iid = ModelMeasure.iid(vertices, w)
    mu = bernoulli(tuple(w), F2)
    for radius in (0, 1):
        W = Window(F2, F2.ball(radius))
        for eps in (0.05, 0.3, 0.6):
            exact = lw_defect(sigma, iid, mu, W, eps)
            assert exact == lw_defect(sigma, full, mu, W, eps)
            assert exact == lw_defect(sigma, iid, mu, W, eps, samples=50, seed=seed + 1)


def test_sampled_defects_of_all_bad_draws_are_exactly_one():
    # every draw of the point-mass site law is the all-zero labelling, which
    # is 1/2 away from the fair-coin law; 2000 copies of 1/2000 sum past 1
    vertices = 8
    sigma = quotient_map(Z, vertices)
    mu = bernoulli((0.5, 0.5), Z)
    nu = ModelMeasure.iid(vertices, (1.0, 0.0))
    W = Window(Z, [()])
    assert quenched_defect(sigma, nu, mu, W, 0.1, samples=2000, seed=3) == 1.0
    assert dq_defect(sigma, nu, mu, W, 0.1, samples=2000, seed=3) == 1.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_quenched_monotone_in_eps(seed):
    gen = np.random.default_rng(seed)
    vertices = 10
    sigma = quotient_map(Z, vertices)
    mu = bernoulli((0.5, 0.5), Z)
    nu = models_to_measure(gen.integers(0, 2, size=(6, vertices)).astype(np.uint8))
    W = Window(Z, [()])
    qs = [quenched_defect(sigma, nu, mu, W, eps) for eps in (0.1, 0.2, 0.4)]
    assert qs[0] >= qs[1] >= qs[2]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_dq_dominates_squared_quenched(seed):
    # a pair-good draw has both legs good at twice the tolerance
    gen = np.random.default_rng(seed)
    vertices = 8
    sigma = random_uniform(GroupSpec.free(2), vertices, seed)
    mu = bernoulli((0.5, 0.5), GroupSpec.free(2))
    nu = models_to_measure(gen.integers(0, 2, size=(5, vertices)).astype(np.uint8))
    W = Window(GroupSpec.free(2), [GroupSpec.free(2).identity()])
    eps = 0.15
    dq = dq_defect(sigma, nu, mu, W, eps)
    q2 = quenched_defect(sigma, nu, mu, W, 2 * eps)
    assert dq >= 1.0 - (1.0 - q2) ** 2 - 1e-12


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.1, 0.25, 0.5]))
@settings(max_examples=20, deadline=None)
def test_barycentre_tv_bounded_by_lw(seed, eps):
    gen = np.random.default_rng(seed)
    vertices = 12
    sigma = quotient_map(Z, vertices)
    mu = bernoulli((0.6, 0.4), Z)
    nu = models_to_measure(gen.integers(0, 2, size=(7, vertices)).astype(np.uint8))
    W = Window(Z, [()])
    disp = dispersion(sigma, nu, mu, W)
    lw = lw_defect(sigma, nu, mu, W, eps)
    assert disp.barycentre_tv <= lw + eps + 1e-12


def test_models_to_measure_merging():
    nu = models_to_measure([np.array([0, 1]), np.array([0, 1]), np.array([1, 0])])
    assert nu.support.shape == (2, 2)
    np.testing.assert_allclose(sorted(nu.weights), [1 / 3, 2 / 3])
    point = models_to_measure([np.array([1, 1, 0])])
    assert point.support.shape == (1, 3)
    assert point.weights[0] == 1.0


def test_h_average_identity_window():
    st_map = product(quotient_map(Z, 3), quotient_map(Z, 4))
    gen = np.random.default_rng(1)
    x = gen.integers(0, 2, size=12).astype(np.uint8)
    theta = ModelMeasure.from_support(x[None, :], [1.0])
    out = h_average(st_map, theta, [()])
    np.testing.assert_array_equal(out.support, theta.support)


def test_h_average_full_cycle_orbit():
    st_map = product(quotient_map(Z, 3), quotient_map(Z, 4))
    # columns 0..3 pairwise distinct, so the rotation orbit has 4 points
    grid = np.zeros((3, 4), dtype=np.uint8)
    grid[:, 0] = 1
    grid[0, 1] = 1
    x = grid.ravel()
    theta = ModelMeasure.from_support(x[None, :], [1.0])
    elems = [(), (1,), (1, 1), (1, 1, 1)]
    out = h_average(st_map, theta, elems)
    assert out.support.shape == (4, 12)
    np.testing.assert_allclose(out.weights, np.full(4, 0.25))
    rotations = {
        tuple(np.roll(grid, shift, axis=1).ravel().tolist()) for shift in range(4)
    }
    assert {tuple(r.tolist()) for r in out.support} == rotations


def test_h_average_mass_and_linearity():
    st_map = product(quotient_map(Z, 2), quotient_map(Z, 2))
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    b = np.array([1, 1, 0, 0], dtype=np.uint8)
    mix = ModelMeasure.from_support(np.stack([a, b]), np.array([0.25, 0.75]))
    elems = [(), (1,)]
    direct = h_average(st_map, mix, elems)
    assert direct.weights.sum() == pytest.approx(1.0)
    part_a = h_average(st_map, ModelMeasure.from_support(a[None, :], [1.0]), elems)
    part_b = h_average(st_map, ModelMeasure.from_support(b[None, :], [1.0]), elems)
    merged = {}
    for part, scale in ((part_a, 0.25), (part_b, 0.75)):
        for row, w in zip(part.support, part.weights):
            key = tuple(row.tolist())
            merged[key] = merged.get(key, 0.0) + scale * float(w)
    got = {tuple(r.tolist()): float(w) for r, w in zip(direct.support, direct.weights)}
    assert set(got) == set(merged)
    for key, val in merged.items():
        assert got[key] == pytest.approx(val)


def test_h_average_refuses_sampler():
    st_map = product(quotient_map(Z, 2), quotient_map(Z, 2))
    nu = ModelMeasure.iid(4, [0.5, 0.5])
    with pytest.raises(ValueError):
        h_average(st_map, nu, [()])



def _pair_vertex_tvs(sigma, nu, mu, window, vertex_pairs, seed):
    """The TV of each sampled vertex pair's joint law, one pair at a time,
    from int64 pattern codes."""
    base = mu.alphabet.size
    mu_f = mu.marginal_elems(window.elements)
    npat = mu_f.size
    codes = np.zeros((sigma.n, nu.support.shape[0]), dtype=np.int64)
    for p in sigma.window_perms(window):
        codes = codes * base + nu.support.T[p]
    gen = stream(seed, "pair-vertex-choice")
    vs = gen.integers(0, sigma.n, size=vertex_pairs)
    ws = gen.integers(0, sigma.n, size=vertex_pairs)
    joint_target = np.outer(mu_f, mu_f).ravel()
    return [
        tv_distance(np.bincount(codes[v] * npat + codes[w], weights=nu.weights, minlength=npat * npat), joint_target)
        for v, w in zip(vs, ws)
    ]


@given(st.integers(2, 3), st.integers(4, 10), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pair_vertex_stat_matches_pair_loop(base, n, k, vertex_pairs, seed):
    """Non-dyadic atom weights, and every eps a pair's TV or the next float
    above it, so a change in any pair's summation order moves a decision."""
    gen = np.random.default_rng(seed)
    support = np.unique(gen.integers(0, base, size=(k, n), dtype=np.uint8), axis=0)
    weights = gen.random(support.shape[0]) + 0.1
    nu = ModelMeasure.from_support(support, weights / weights.sum())
    w = gen.random(base) + 0.1
    mu = bernoulli(w / w.sum(), Z)
    sigma = quotient_map(Z, n)
    window = Window(Z, ((), (1,)))
    tvs = _pair_vertex_tvs(sigma, nu, mu, window, vertex_pairs, seed)
    for eps in sorted({*tvs, *(float(np.nextafter(t, 2.0)) for t in tvs)} - {0.0}):
        expect = sum(tv >= eps for tv in tvs) / vertex_pairs
        assert pair_vertex_stat(sigma, nu, mu, window, eps, vertex_pairs, seed) == expect

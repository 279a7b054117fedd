import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import sofic
from soficlab.groups import GroupSpec
from soficlab.randomness import stream
from soficlab.sofic import (
    SoficMap,
    SpectralReport,
    partitioned_random,
    product,
    quotient_map,
    random_uniform,
    schreier_spectral_gaps,
)

Z = GroupSpec.integers()
F2 = GroupSpec.free(2)


def _mult_defect(sigma, g, h):
    """Fraction of vertices where sigma^g o sigma^h and sigma^{gh} differ."""
    lhs = sigma.perm_of(g)[sigma.perm_of(h)]
    return float(np.count_nonzero(lhs != sigma.perm_of(sigma.group.multiply(g, h)))) / sigma.n


def _fixed_fraction(sigma, g):
    """Fraction of vertices that sigma^g fixes."""
    return float(np.count_nonzero(sigma.perm_of(g) == np.arange(sigma.n))) / sigma.n


def test_evaluate_cycle():
    sigma = quotient_map(Z, 3)
    assert sigma.perm_of(())[0] == 0
    assert sigma.perm_of((1,))[0] == 1
    assert sigma.perm_of((-1,))[0] == 2
    assert sigma.perm_of((1, 1))[1] == 0


def test_quotient_is_homomorphism():
    sigma = quotient_map(Z, 5)
    assert np.array_equal(sigma.perm_of((1,) * 5), np.arange(5))
    assert _mult_defect(sigma, (1,), (1,)) == 0.0
    assert _fixed_fraction(sigma, (1,)) == 0.0
    # exhaustive composition law on the radius-2 window
    w = Z.ball(2)
    assert max(_mult_defect(sigma, g, h) for g in w for h in w) == 0.0
    assert _fixed_fraction(quotient_map(Z, 2), (1,)) == 0.0


def test_identity_permutation_defects():
    sigma = SoficMap(Z, {"a": np.arange(4)})
    assert _mult_defect(sigma, (1,), (1,)) == 0.0
    assert _fixed_fraction(sigma, (1,)) == 1.0


def test_random_uniform_determinism():
    s1 = random_uniform(F2, 50, seed=7)
    s2 = random_uniform(F2, 50, seed=7)
    for lab in ("a", "b"):
        assert np.array_equal(s1.perms[lab], s2.perms[lab])
    assert not np.array_equal(s1.perms["a"], random_uniform(F2, 50, seed=8).perms["a"])
    tiny = random_uniform(F2, 1, seed=0)
    assert tiny.perm_of((1,))[0] == 0


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_random_uniform_bijections(seed):
    sigma = random_uniform(F2, 17, seed)
    for p in sigma.perms.values():
        assert np.array_equal(np.sort(p), np.arange(17))


def test_partitioned_random_preserves_blocks():
    n = 5
    sigma = partitioned_random(n, seed=3)
    assert sigma.n == 4 * n
    U, W = sigma.partition["U"], sigma.partition["W"]
    assert U.size == 3 * n and W.size == n
    for lab in ("a", "b"):
        assert set(sigma.perms[lab][U]) == set(U)
        assert set(sigma.perms[lab][W]) == set(W)
    one_w = np.zeros(sigma.n)
    one_w[W] = 1
    assert one_w.mean() == 0.25


def test_product_map():
    c2 = quotient_map(Z, 2)
    st_map = product(c2, c2)
    e = st_map.group.identity()
    assert st_map.perm_of(e)[3] == 3
    # (a, a) sends (0,0) to (1,1), row-major vertex 3
    assert st_map.perm_of(((1,), (1,)))[0] == 3
    assert st_map.n == 4


def test_product_defect_union_bound():
    gen = np.random.default_rng(0)
    for _ in range(20):
        s1, s2 = int(gen.integers(2**31)), int(gen.integers(2**31))
        sig = random_uniform(F2, 16, s1)
        tau = random_uniform(F2, 8, s2)
        st_map = product(sig, tau)
        g, gp = (1,), (2,)
        h, hp = (2,), (1, 1)
        d_pair = _mult_defect(st_map, (g, h), (gp, hp))
        d_sig = _mult_defect(sig, g, gp)
        d_tau = _mult_defect(tau, h, hp)
        assert d_pair <= d_sig + d_tau + 1e-12


# -- spectral oracles -----------------------------------------------------------


def test_spectral_cycle():
    """Z/6 cycle: lambda_2 = cos(2*pi/6) = 1/2 exactly."""
    sigma = quotient_map(Z, 6)
    (rep,) = schreier_spectral_gaps([(sigma, np.arange(sigma.n), 0)], ["a"])
    assert rep.converged
    assert rep.lambda2 == pytest.approx(0.5, abs=1e-6)


def test_spectral_complete_graph():
    # F3 acting on Z/4 by the three nonzero rotations: the Schreier graph is
    # K4, second signed eigenvalue -1/(|V|-1)
    rotations = {lab: (np.arange(4) + k) % 4 for k, lab in enumerate("abc", start=1)}
    sigma = SoficMap(GroupSpec.free(3), rotations)
    (rep,) = schreier_spectral_gaps([(sigma, np.arange(sigma.n), 0)], ["a", "b", "c"])
    assert rep.lambda2 == pytest.approx(1 / 3, abs=1e-6)
    assert rep.lambda2_signed == pytest.approx(-1 / 3, abs=1e-6)


def test_spectral_disconnected():
    sigma = SoficMap(Z, {"a": np.array([1, 0, 3, 2])})
    (rep,) = schreier_spectral_gaps([(sigma, np.arange(sigma.n), 0)], ["a"])
    assert rep.lambda2 == pytest.approx(1.0, abs=1e-6)


def test_spectral_restriction():
    sigma = partitioned_random(16, seed=20260821)
    reports = schreier_spectral_gaps([(sigma, sigma.partition[region], 0) for region in ("U", "W")], ["a", "b"])
    for rep in reports:
        assert rep.converged
        assert rep.lambda2 < 1.0


def _spectral_gap_serial(sigma, generators, restriction, seed):
    """Reference: the power iteration as it ran one block at a time, with the
    Schreier adjacency applied by np.bincount over the block's edge list."""
    if not generators:
        raise ValueError("generator set must be nonempty")
    verts = np.asarray(restriction, dtype=np.int64)
    m = verts.size
    if m < 2:
        raise ValueError("need at least two vertices for a second eigenvalue")
    pos = -np.ones(sigma.n, dtype=np.int64)
    pos[verts] = np.arange(m)
    rows_list, cols_list = [], []
    for lab in generators:
        img = pos[sigma.perms[lab][verts]]
        src = np.arange(m, dtype=np.int64)
        keep = img >= 0
        rows_list.extend([src[keep], img[keep]])
        cols_list.extend([img[keep], src[keep]])
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    deg = 2.0 * len(generators)

    def apply_m(x):
        return np.bincount(rows, weights=x[cols], minlength=m) / deg

    x = stream(seed, "spectral").standard_normal(m)
    x -= x.mean()
    x /= np.linalg.norm(x)
    prev = np.inf
    lam = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, sofic.SPECTRAL_MAX_ITERS + 1):
        mx = apply_m(x)
        lam = float(x @ mx)
        if abs(lam - prev) < sofic.SPECTRAL_TOL:
            converged = True
            break
        prev = lam
        y = 0.5 * (mx + x)
        y -= y.mean()
        norm = np.linalg.norm(y)
        if norm < 1e-300:
            converged = True
            break
        x = y / norm
    mx = apply_m(x)
    res_vec = mx - lam * x
    res_vec -= res_vec.mean()
    return SpectralReport(
        lambda2=abs(lam),
        lambda2_signed=lam,
        cheeger_lower=(1.0 - lam) / 2.0,
        converged=converged,
        iterations=iterations,
        residual=float(np.linalg.norm(res_vec)),
    )


def _assert_same_as_serial(blocks, generators):
    got = schreier_spectral_gaps(blocks, generators)
    assert len(got) == len(blocks)
    for (sigma, restriction, seed), rep in zip(blocks, got):
        want = _spectral_gap_serial(sigma, generators, restriction, seed)
        for field in ("lambda2", "lambda2_signed", "cheeger_lower", "converged", "iterations", "residual"):
            assert repr(getattr(rep, field)) == repr(getattr(want, field)), field
    return got


F3 = GroupSpec.free(3)
SWAP = SoficMap(F3, {lab: np.array([1, 0]) for lab in "abc"})


@given(st.integers(1, 3), st.lists(st.tuples(st.integers(2, 40), st.floats(0.3, 1.0)), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_spectral_gaps_match_serial_iteration(gens, shapes, seed, with_swap):
    """Blocks of mixed sizes, restricted to random vertex subsets so that edges
    leaving the subset are dropped, give the serial iteration's floats."""
    gen = np.random.default_rng(seed)
    blocks = []
    for n, keep in shapes:
        sigma = random_uniform(F3, n, int(gen.integers(2**32)))
        size = max(2, int(round(keep * n)))
        restriction = np.sort(gen.choice(n, size=size, replace=False))
        blocks.append((sigma, restriction, int(gen.integers(2**32))))
    if with_swap:
        blocks.insert(int(gen.integers(len(blocks) + 1)), (SWAP, np.arange(2), int(gen.integers(2**32))))
    _assert_same_as_serial(blocks, ["a", "b", "c"][:gens])


def test_spectral_gaps_swap_vanishes_beside_iterating_blocks():
    """The Z/2 swap leaves at step 1 through the vanishing-iterate exit while
    blocks of the same size, and of other sizes, keep iterating."""
    fixed = SoficMap(F3, {lab: np.arange(2) for lab in "abc"})
    blocks = [(SWAP, np.arange(2), 5), (random_uniform(F3, 24, 1), np.arange(24), 2), (fixed, np.arange(2), 9)]
    swap, other, _ = _assert_same_as_serial(blocks, ["a"])
    assert swap.converged and swap.iterations == 1
    assert other.iterations > 1


def test_spectral_gaps_iteration_cap(monkeypatch):
    monkeypatch.setattr(sofic, "SPECTRAL_MAX_ITERS", 7)
    sigma = partitioned_random(16, seed=20260821)
    blocks = [(sigma, sigma.partition[region], s) for region in ("U", "W") for s in (0, 1)]
    for rep in _assert_same_as_serial(blocks, ["a", "b"]):
        assert not rep.converged
        assert rep.iterations == 7


def test_spectral_gaps_refuse_bad_blocks():
    sigma = quotient_map(Z, 6)
    with pytest.raises(ValueError, match="nonempty"):
        schreier_spectral_gaps([(sigma, np.arange(6), 0)], [])
    with pytest.raises(ValueError, match="two vertices"):
        schreier_spectral_gaps([(sigma, np.arange(6), 0), (sigma, np.array([2]), 0)], ["a"])
    assert schreier_spectral_gaps([], ["a"]) == []

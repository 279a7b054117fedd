import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.groups import GroupSpec
from soficlab.sofic import (
    SoficMap,
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
    # every (g, h) of the radius-1 balls acts as sigma^g x tau^h, row-major
    sigma = random_uniform(F2, 5, seed=11)
    tau = quotient_map(Z, 3)
    st_map = product(sigma, tau)
    assert st_map.n == 15 and st_map.perms == {}
    for g in F2.ball(1):
        for h in Z.ball(1):
            pg, ph = sigma.perm_of(g), tau.perm_of(h)
            expect = [pg[v] * tau.n + ph[w] for v in range(sigma.n) for w in range(tau.n)]
            assert st_map.perm_of((g, h)).tolist() == expect


def test_product_defect_union_bound():
    gen = np.random.default_rng(0)
    for _ in range(20):
        s1, s2 = int(gen.integers(2**31)), int(gen.integers(2**31))
        sig = random_uniform(F2, 16, s1)
        tau = random_uniform(F2, 8, s2)
        st_map = product(sig, tau)
        g, gp = (1,), (2,)
        h, hp = (2,), (1, 1)
        # the product of (g, h) and (gp, hp) is taken componentwise
        gh = (F2.multiply(g, gp), F2.multiply(h, hp))
        lhs = st_map.perm_of((g, h))[st_map.perm_of((gp, hp))]
        d_pair = float(np.count_nonzero(lhs != st_map.perm_of(gh))) / st_map.n
        d_sig = _mult_defect(sig, g, gp)
        d_tau = _mult_defect(tau, h, hp)
        assert d_pair <= d_sig + d_tau + 1e-12


# -- spectral oracles -----------------------------------------------------------


def test_spectral_cycle():
    """Z/6 cycle: lambda_2 = cos(2*pi/6) = 1/2 exactly."""
    sigma = quotient_map(Z, 6)
    (rep,) = schreier_spectral_gaps([(sigma, np.arange(sigma.n))], ["a"])
    assert rep.lambda2 == pytest.approx(0.5, abs=1e-12)


def test_spectral_complete_graph():
    # F3 acting on Z/4 by the three nonzero rotations: the Schreier graph is
    # K4, second signed eigenvalue -1/(|V|-1)
    rotations = {lab: (np.arange(4) + k) % 4 for k, lab in enumerate("abc", start=1)}
    sigma = SoficMap(GroupSpec.free(3), rotations)
    (rep,) = schreier_spectral_gaps([(sigma, np.arange(sigma.n))], ["a", "b", "c"])
    # -1/3 reported to the 10 decimals of every lambda_2
    assert rep.lambda2_signed == -0.3333333333
    assert rep.lambda2 == 0.3333333333


def test_spectral_disconnected():
    sigma = SoficMap(Z, {"a": np.array([1, 0, 3, 2])})
    (rep,) = schreier_spectral_gaps([(sigma, np.arange(sigma.n))], ["a"])
    assert rep.lambda2 == pytest.approx(1.0, abs=1e-12)


def test_spectral_restriction():
    sigma = partitioned_random(16, seed=20260821)
    reports = schreier_spectral_gaps([(sigma, sigma.partition[region]) for region in ("U", "W")], ["a", "b"])
    assert len(reports) == 2
    for rep in reports:
        assert rep.lambda2 < 1.0


def _round10(value):
    return round(value, 10) + 0.0


def _top_mean_zero_eigenvalue(sigma, generators, restriction):
    """Reference: the largest eigenvalue of the normalized Schreier adjacency
    on the mean-zero vectors, from the explicit edge list and an orthonormal
    basis of the complement of the constant vector."""
    verts = [int(v) for v in restriction]
    pos = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    src, dst = [], []
    for lab in generators:
        for i, v in enumerate(verts):
            j = pos.get(int(sigma.perms[lab][v]))
            if j is not None:
                src += [i, j]
                dst += [j, i]
    adj = np.zeros((m, m))
    np.add.at(adj, (src, dst), 1.0 / (2 * len(generators)))
    # the first column of Q spans the constant vector, the rest its complement
    q, _ = np.linalg.qr(np.column_stack([np.ones(m), np.eye(m)[:, : m - 1]]))
    basis = q[:, 1:]
    return float(np.linalg.eigvalsh(basis.T @ adj @ basis)[-1])


F3 = GroupSpec.free(3)
SWAP = SoficMap(F3, {lab: np.array([1, 0]) for lab in "abc"})


@given(st.integers(1, 3), st.lists(st.tuples(st.integers(2, 40), st.floats(0.3, 1.0)), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_spectral_gaps_match_independent_construction(gens, shapes, seed, with_swap):
    """Blocks of mixed sizes, restricted to random vertex subsets so that edges
    leaving the subset are dropped, and the Z/2 swap (lambda_2 = -1)."""
    gen = np.random.default_rng(seed)
    generators = ["a", "b", "c"][:gens]
    blocks = []
    for n, keep in shapes:
        sigma = random_uniform(F3, n, int(gen.integers(2**32)))
        size = max(2, int(round(keep * n)))
        blocks.append((sigma, np.sort(gen.choice(n, size=size, replace=False))))
    if with_swap:
        blocks.insert(int(gen.integers(len(blocks) + 1)), (SWAP, np.arange(2)))
    got = schreier_spectral_gaps(blocks, generators)
    assert len(got) == len(blocks)
    for (sigma, restriction), rep in zip(blocks, got):
        top = _top_mean_zero_eigenvalue(sigma, generators, restriction)
        # a reference within float noise of a rounding midpoint may round either way
        assert rep.lambda2_signed in {_round10(top), _round10(top - 1e-12), _round10(top + 1e-12)}
        assert rep.lambda2 == abs(rep.lambda2_signed)
        assert rep.cheeger_lower == (1.0 - rep.lambda2_signed) / 2.0
        if sigma is SWAP:
            assert rep.lambda2_signed == -1.0


def test_spectral_gaps_refuse_bad_blocks():
    sigma = quotient_map(Z, 6)
    with pytest.raises(ValueError, match="nonempty"):
        schreier_spectral_gaps([(sigma, np.arange(6))], [])
    with pytest.raises(ValueError, match="two vertices"):
        schreier_spectral_gaps([(sigma, np.arange(6)), (sigma, np.array([2]))], ["a"])
    assert schreier_spectral_gaps([], ["a"]) == []

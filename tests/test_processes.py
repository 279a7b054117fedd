import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.config import validate_config
from soficlab.covering import ModelMeasure
from soficlab.entropy import shannon_entropy
from soficlab.groups import GroupSpec, Window, coind_group
from soficlab.models import count_good_models_mc, letter_frequency_count
from soficlab.processes import (
    BernoulliOracle,
    CosetIidOracle,
    TreeMarkovOracle,
    _decode_codes,
    _pattern_codes,
    bernoulli,
    coinduced,
    coset_iid,
    decode_patterns,
    pattern_count,
    periodic_orbit,
    product_process,
    tree_markov,
    tv_distance,
    validate_weights,
)
from soficlab.sofic import quotient_map

F2 = GroupSpec.free(2)
Z = GroupSpec.integers()
CG = coind_group()


def test_bernoulli_point_mass():
    mu = bernoulli((1.0, 0.0), F2)
    probs = mu.marginal_elems(Window(F2, F2.ball(1)).elements)
    assert probs[0] == 1.0
    assert probs[1:].sum() == 0.0


def test_bernoulli_uniform_cube():
    mu = bernoulli((0.5, 0.5), F2)
    probs = mu.marginal_elems(((), (1,), (2,)))
    np.testing.assert_allclose(probs, np.full(8, 0.125))


def test_bernoulli_biased_pair():
    mu = bernoulli((0.75, 0.25), F2)
    probs = mu.marginal_elems(Window(F2, ((), (1,))).elements)
    np.testing.assert_allclose(probs, [9 / 16, 3 / 16, 3 / 16, 1 / 16])


@pytest.mark.parametrize(
    "mu",
    [bernoulli((0.5, 0.5), F2), tree_markov([[0.7, 0.3], [0.3, 0.7]], (0.5, 0.5), F2)],
    ids=["bernoulli", "tree_markov"],
)
def test_marginal_elems_refuses_repeated_elements(mu):
    # a repeated element is one site, not two independent ones
    with pytest.raises(ValueError, match="distinct"):
        mu.marginal_elems(((1,), (1,)))
    with pytest.raises(ValueError, match="distinct"):
        mu.marginal_elems(((), (1,), ()))
    # nor is an empty tuple a window: it has no position to encode
    with pytest.raises(ValueError, match="nonempty"):
        mu.marginal_elems(())


E4 = json.loads((Path(__file__).resolve().parent.parent / "configs" / "e4.json").read_text())


def _e4_weights(w):
    """validate_config on the E4 config with these weights, raising its problems."""
    problems = validate_config({**E4, "weights": list(w)})
    if problems:
        raise ValueError("; ".join(problems))


# every entry point that takes a probability vector: (call, field its refusal names)
LAW_ENTRY_POINTS = {
    "validate_weights": (validate_weights, "weights"),
    "validate_config E4": (_e4_weights, "weights"),
    "bernoulli": (lambda w: bernoulli(w, F2), "weights"),
    "coset_iid": (lambda w: coset_iid(w, CG), "weights"),
    "ModelMeasure.iid": (lambda w: ModelMeasure.iid(3, w), "site weights"),
    "ModelMeasure.from_support": (lambda w: ModelMeasure.from_support([[0], [1]], w), "weights"),
    "tree_markov initial": (lambda w: tree_markov([[0.5, 0.5], [0.5, 0.5]], w, F2), "initial"),
    # row 0 carries no initial mass, so any row is stationary and in balance
    "tree_markov transition": (lambda w: tree_markov([w, [0.0, 1.0]], [0.0, 1.0], F2), "transition row 0"),
    "shannon_entropy": (shannon_entropy, "weights"),
    "count_good_models_mc": (
        lambda w: count_good_models_mc(quotient_map(Z, 4), bernoulli((0.5, 0.5), Z), Window(Z, [()]), 0.3, w, 2, 0),
        "proposal",
    ),
    "letter_frequency_count": (lambda w: letter_frequency_count(w, 4, 0.3), "weights"),
}


@pytest.mark.parametrize("name", sorted(LAW_ENTRY_POINTS))
def test_probability_vectors_follow_one_rule(name):
    """One rule, `config.check_weights`, for every probability vector: a 1-D
    vector of finite, nonnegative entries summing to 1 within 1e-9, whether
    given as a list or a numpy array. A NaN entry used to pass the sign and
    sum tests, since every comparison with NaN is false."""
    law, field = LAW_ENTRY_POINTS[name]
    for kind in (list, np.array):
        for bad in ([np.nan, 1.0], [0.7, 0.7], [1.5, -0.5], [np.inf, 0.0], [True, False]):
            with pytest.raises(ValueError, match=field):
                law(kind(bad))
        # a 2-D row makes tree_markov's transition ragged, which numpy refuses
        # before any row reaches the rule
        with pytest.raises(ValueError, match=None if name == "tree_markov transition" else field):
            law(kind([[0.5, 0.5]]))
        for total in (1 + 1.1e-9, 1 - 1.1e-9):
            with pytest.raises(ValueError, match=field):
                law(kind([total / 2, total / 2]))
        for total in (1 + 0.9e-9, 1 - 0.9e-9):
            law(kind([total / 2, total / 2]))
        law(kind([0.5, 0.5 + 1e-10]))


def test_bernoulli_rejects_bad_weights():
    with pytest.raises(ValueError):
        bernoulli((0.5, 0.4), F2)
    with pytest.raises(ValueError):
        bernoulli((1.5, -0.5), F2)


def test_tree_markov_flip_chain():
    mu = tree_markov([[0.7, 0.3], [0.3, 0.7]], (0.5, 0.5), F2)
    probs = mu.marginal_elems(Window(F2, ((), (1,))).elements)
    # P(00) = pi_0 * P[0,0] = 0.5 * 0.7
    np.testing.assert_allclose(probs, [0.35, 0.15, 0.15, 0.35])


def test_tree_markov_identity_chain():
    mu = tree_markov([[1.0, 0.0], [0.0, 1.0]], (0.5, 0.5), F2)
    probs = mu.marginal_elems(Window(F2, ((), (1,))).elements)
    np.testing.assert_allclose(probs, [0.5, 0.0, 0.0, 0.5])


def test_tree_markov_uniform_rows_is_iid():
    mu = tree_markov([[0.5, 0.5], [0.5, 0.5]], (0.5, 0.5), F2)
    iid = bernoulli((0.5, 0.5), F2)
    W = Window(F2, F2.ball(1))
    assert tv_distance(mu.marginal_elems(W.elements), iid.marginal_elems(W.elements)) < 1e-12


def test_tree_markov_rejects_nonstationary():
    with pytest.raises(ValueError):
        tree_markov([[0.7, 0.3], [0.3, 0.7]], (0.9, 0.1), F2)


def test_tree_markov_rejects_detailed_balance_violation():
    # doubly stochastic 3-state cycle: uniform is stationary but pi_i P_ij
    # is not symmetric
    P = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    with pytest.raises(ValueError):
        tree_markov(P, (1 / 3, 1 / 3, 1 / 3), F2)


def test_tree_markov_rejects_nonfree_group():
    with pytest.raises(ValueError):
        tree_markov([[1.0]], (1.0,), CG)


def test_periodic_orbit_alternating():
    mu = periodic_orbit("01", Z)
    np.testing.assert_allclose(mu.marginal_elems(((),)), [0.5, 0.5])
    probs = mu.marginal_elems(Window(Z, ((), (1,))).elements)
    np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0])


def test_periodic_orbit_rejects_imprimitive_pattern():
    with pytest.raises(ValueError):
        periodic_orbit("0101", Z)
    with pytest.raises(ValueError):
        periodic_orbit("", Z)
    with pytest.raises(ValueError):
        periodic_orbit("01", F2)


def test_periodic_orbit_fixed_point():
    mu = periodic_orbit("0", Z)
    probs = mu.marginal_elems(Window(Z, ((), (1,), (-1,))).elements)
    assert probs[0] == 1.0
    assert probs.sum() == 1.0


def test_coset_iid_same_coset():
    mu = coset_iid((0.75, 0.25), CG)
    # e and a lie in the same right H-coset, so the pair is diagonal
    probs = mu.marginal_elems(Window(CG, ((), (1,))).elements)
    np.testing.assert_allclose(probs, [0.75, 0.0, 0.0, 0.25])


def test_coset_iid_cross_coset():
    mu = coset_iid((0.75, 0.25), CG)
    # e and a' lie in distinct cosets, hence independent
    probs = mu.marginal_elems(Window(CG, ((), (3,))).elements)
    np.testing.assert_allclose(probs, [9 / 16, 3 / 16, 3 / 16, 1 / 16])


def test_coset_iid_rejects_wrong_group():
    with pytest.raises(ValueError):
        coset_iid((0.5, 0.5), F2)


def test_coinduced_same_fiber_recovers_base():
    base = bernoulli((0.75, 0.25), F2)
    mu = coinduced(base, Z)
    same = mu.marginal_elems((((), ()), ((1,), ())))
    np.testing.assert_allclose(same, base.marginal_elems(((), (1,))))


def test_coinduced_cross_fiber_product():
    base = tree_markov([[0.7, 0.3], [0.3, 0.7]], (0.5, 0.5), F2)
    mu = coinduced(base, Z)
    cross = mu.marginal_elems((((), ()), ((1,), (1,))))
    one = base.marginal_elems(((),))
    np.testing.assert_allclose(cross, np.outer(one, one).ravel())


def test_product_pair_alphabet_row_major():
    mu = coset_iid((0.75, 0.25), CG)
    pair = product_process(mu, mu)
    assert pair.alphabet.size == 4
    probs = pair.marginal_elems(((),))
    # independent coordinates: P((1, 0)) sits at code 1*2+0
    assert probs[2] == pytest.approx(3 / 16)
    np.testing.assert_allclose(probs, [9 / 16, 3 / 16, 3 / 16, 1 / 16])


@pytest.mark.parametrize("k", [12, 16])
def test_product_of_large_alphabets(k):
    # k * k letters is within the 256 cap; the product must not refuse it
    gen = np.random.default_rng(k)
    wx, wy = gen.dirichlet(np.ones(k)), gen.dirichlet(np.ones(k))
    pair = product_process(bernoulli(wx, F2), bernoulli(wy, F2))
    assert pair.alphabet.size == k * k
    np.testing.assert_array_equal(pair.marginal_elems(((),)), np.outer(wx / wx.sum(), wy / wy.sum()).ravel())


def test_product_of_bernoullis_is_bernoulli():
    p = bernoulli((0.75, 0.25), F2)
    q = bernoulli((0.5, 0.5), F2)
    pair = product_process(p, q)
    joint = BernoulliOracle((0.375, 0.375, 0.125, 0.125), F2)
    W = Window(F2, ((), (1,), (2,)))
    assert tv_distance(pair.marginal_elems(W.elements), joint.marginal_elems(W.elements)) < 1e-12


def test_product_with_a_256_letter_factor():
    # a 1-letter x factor leaves a 256-letter y factor, whose base overflows uint8
    weights = np.arange(1, 257) / np.arange(1, 257).sum()
    nu = bernoulli(weights, Z)
    pair = product_process(bernoulli((1.0,), Z), nu)
    assert np.array_equal(pair.marginal_elems(((), (1,))), nu.marginal_elems(((), (1,))))


def test_product_rejects_mixed_groups():
    with pytest.raises(ValueError):
        product_process(bernoulli((0.5, 0.5), F2), bernoulli((0.5, 0.5), Z))


def test_pattern_count_and_decode():
    assert pattern_count(2, 3) == 8
    pats = decode_patterns(3, 2)
    assert pats.shape == (9, 2) and pats.dtype == np.uint8
    assert tuple(pats[5]) == (1, 2)
    assert np.array_equal(decode_patterns(256, 2)[-1], [255, 255])
    with pytest.raises(ValueError):
        pattern_count(2, 64)


@pytest.mark.parametrize("base", [1, 2, 3, 4])
def test_pattern_codes_invert_decode_patterns(base):
    for m in range(1, 7):
        patterns = decode_patterns(base, m)
        before = patterns.copy()
        # range(m) gathers rows of the transposed matrix as views of it
        codes = _pattern_codes(patterns.T, range(m), base)
        assert np.array_equal(codes, np.arange(base**m))
        assert codes.dtype == np.min_scalar_type(base**m - 1)
        assert np.array_equal(patterns, before)


@pytest.mark.parametrize("base, m", [(1, 3), (2, 1), (2, 11), (3, 6), (4, 5), (256, 2)])
def test_decode_patterns_is_the_product_order(base, m):
    """`decode_patterns` lists every pattern in the order of itertools.product,
    the order of the column loop it was before it applied `_decode_codes` to
    an arange."""
    expect = np.array(list(itertools.product(range(base), repeat=m)), dtype=np.uint8).reshape(-1, m)
    got = decode_patterns(base, m)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, expect)


@given(st.integers(1, 256), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_decode_codes_inverts_pattern_codes(base, m, seed):
    """`_decode_codes` of `_pattern_codes` gives back the rows, in any code
    order, for codes up to the int64 limit; the codes it is given are not
    changed."""
    m = min(m, int(63 * np.log(2) / np.log(base)) if base > 1 else m)
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, base, size=(50, m), dtype=np.uint8)
    codes = _pattern_codes(rows.T, range(m), base).astype(np.int64)
    before = codes.copy()
    np.testing.assert_array_equal(_decode_codes(codes, base, m), rows)
    np.testing.assert_array_equal(codes, before)
    assert _decode_codes(codes[:0], base, m).shape == (0, m)


def test_decode_patterns_memory():
    # the uint8 matrix and a few int64 index vectors, no int64 matrix
    total, m = 1 << 17, 17
    tracemalloc.start()
    try:
        pats = decode_patterns(2, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pats.nbytes + 3 * 8 * total


def _project(probs, base, m, positions):
    """Marginal of a pattern vector over m positions on the given positions, in that order."""
    shaped = probs.reshape((base,) * m)
    reduced = shaped.sum(axis=tuple(i for i in range(m) if i not in positions))
    return np.transpose(reduced, axes=np.argsort(np.argsort(positions))).ravel()


@given(
    st.integers(1, 12),
    st.integers(1, 400),
    st.sampled_from(["C", "F", "sliced"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pattern_distribution_project_and_tv(rows, npat, layout, stacked_q, seed):
    mu = bernoulli((0.75, 0.25), F2)
    W = Window(F2, ((), (1,), (2,)))
    probs = mu.marginal_elems(W.elements)
    np.testing.assert_allclose(_project(probs, 2, 3, [0]), [0.75, 0.25])
    np.testing.assert_allclose(_project(probs, 2, 3, [1, 2]), mu.marginal_elems(((1,), (2,))))
    assert tuple(decode_patterns(2, len(W))[5]) == (1, 0, 1)
    assert tv_distance(probs, probs) == 0.0
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    # row-wise over the last axis: each row's value is, bit for bit, the 1-D
    # value of that row (half the sum of a contiguous |p - q|), whatever the
    # layout of the block, and a 1-D call returns a Python float
    gen = np.random.default_rng(seed)
    p = gen.integers(0, 50, size=(rows, npat)) / 49.0
    q = gen.dirichlet(np.ones(npat), size=rows if stacked_q else None)
    if layout == "F":
        p = np.asfortranarray(p)
    elif layout == "sliced":
        wide = np.zeros((2 * rows, npat + 3))
        wide[::2, 1 : npat + 1] = p
        p = wide[::2, 1 : npat + 1]
    got = tv_distance(p, q)
    assert got.shape == (rows,) and got.dtype == np.float64
    qs = q if stacked_q else np.broadcast_to(q, p.shape)
    one = [tv_distance(p[r], qs[r]) for r in range(rows)]
    assert all(type(t) is float for t in one)
    assert got.tolist() == one == [0.5 * float(np.abs(np.array(p[r]) - qs[r]).sum()) for r in range(rows)]


def _shift_gap(mu, window, g):
    """TV between the F-marginal and the g-translated Fg-marginal."""
    translate = tuple(mu.group.multiply(f, g) for f in window.elements)
    return tv_distance(mu.marginal_elems(window.elements), mu.marginal_elems(translate))


ORACLES = [
    bernoulli((0.75, 0.25), F2),
    tree_markov([[0.7, 0.3], [0.3, 0.7]], (0.5, 0.5), F2),
]


@pytest.mark.parametrize("mu", ORACLES, ids=["bernoulli", "tree_markov"])
def test_shift_invariance_gap_zero(mu):
    W = Window(F2, F2.ball(1))
    for g in ((1,), (-2,), (1, 2)):
        assert _shift_gap(mu, W, g) < 1e-12


def test_shift_invariance_gap_coset_process():
    mu = coset_iid((0.75, 0.25), CG)
    W = Window(CG, CG.ball(1))
    for g in ((1,), (3,), (1, 3)):
        assert _shift_gap(mu, W, g) < 1e-12


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_marginal_projection_consistency(i, j):
    mu = tree_markov([[0.7, 0.3], [0.3, 0.7]], (0.5, 0.5), F2)
    big = Window(F2, F2.ball(1))
    positions = sorted({i, j})
    sub = tuple(big.elements[q] for q in positions)
    np.testing.assert_allclose(
        _project(mu.marginal_elems(big.elements), 2, len(big), positions),
        mu.marginal_elems(sub),
        atol=1e-12,
    )



def test_tree_markov_full_radius_two_ball():
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    pi = np.array([0.5, 0.5])
    mu = tree_markov(P, pi, F2)
    W = Window(F2, F2.ball(2))
    probs = mu.marginal_elems(W.elements)
    # pi(x_e) times P(x_parent, x_child) over the tree edges; the parent of a
    # reduced word drops its first letter
    pats = decode_patterns(2, len(W))
    pos = {w: i for i, w in enumerate(W.elements)}
    ref = pi[pats[:, pos[()]]]
    for w, i in pos.items():
        if w:
            ref = ref * P[pats[:, pos[w[1:]]], pats[:, i]]
    assert probs.shape == (1 << 17,)
    np.testing.assert_allclose(probs, ref, rtol=1e-12, atol=0.0)
    assert abs(float(probs.sum()) - 1.0) < 1e-12
    # F g is not suffix-closed, so its tree has unclamped internal nodes
    assert _shift_gap(mu, W, (1,)) < 1e-12


# -- batched marginals against per-pattern loops ------------------------------------


def _tree_markov_loop(P, pi, elements):
    """Per-pattern reference: one recursive tree walk for every pattern."""
    base = pi.size
    m = len(elements)
    nodes = {(): None}
    for w in elements:
        for i in range(1, len(w) + 1):
            nodes[tuple(w[len(w) - i :])] = None
    children = {w: [] for w in nodes}
    for w in nodes:
        if w:
            children[tuple(w[1:])].append(w)
    for kids in children.values():
        kids.sort()
    clamp_pos = {tuple(w): i for i, w in enumerate(elements)}
    patterns = decode_patterns(base, m)
    probs = np.empty(len(patterns))
    for idx, pat in enumerate(patterns):

        def subtree(node):
            vec = np.ones(base)
            for child in children[node]:
                vec = vec * (P @ subtree(child))
            if node in clamp_pos:
                s = pat[clamp_pos[node]]
                mask = np.zeros(base)
                mask[s] = vec[s]
                vec = mask
            return vec

        probs[idx] = float(pi @ subtree(()))
    return probs


def _coset_iid_loop(mu0, group, elements):
    """Per-pattern reference: coset classes of the first factor tested one
    pattern at a time."""
    classes = {}
    for pos, g in enumerate(elements):
        classes.setdefault(group.right_coset_key(g, 0), []).append(pos)
    patterns = decode_patterns(mu0.size, len(elements))
    probs = np.zeros(len(patterns))
    for idx, pat in enumerate(patterns):
        p = 1.0
        for positions in classes.values():
            s = pat[positions[0]]
            if any(pat[q] != s for q in positions[1:]):
                p = 0.0
                break
            p *= mu0[s]
        probs[idx] = p
    return probs


# at most 4096 (base 2) or 6561 (base 3) patterns, so the loops stay fast
MAX_ELEMENTS = {2: 12, 3: 8}


def _reversible_chain(data, base):
    """P = A / rowsum and pi proportional to rowsum for a random symmetric A."""
    weights = st.floats(0.05, 1.0, allow_nan=False)
    A = np.array(data.draw(st.lists(weights, min_size=base * base, max_size=base * base))).reshape(base, base)
    A = A + A.T
    rowsum = A.sum(axis=1)
    return A / rowsum[:, None], rowsum / rowsum.sum()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tree_markov_batched_equals_loop(data):
    base = data.draw(st.sampled_from((2, 3)))
    P, pi = _reversible_chain(data, base)
    # subsets of ball(2) with the identity; most are not suffix-closed and
    # leave internal tree nodes unclamped
    rest = F2.ball(2).elements[1:]
    picked = data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=MAX_ELEMENTS[base] - 1))
    elements = tuple(data.draw(st.permutations(((),) + tuple(picked))))
    probs = TreeMarkovOracle(P, pi, F2).marginal_elems(elements)
    assert np.array_equal(probs, _tree_markov_loop(P, pi, elements))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_coset_iid_batched_equals_loop(data):
    base = data.draw(st.sampled_from((2, 3)))
    mu0 = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=base, max_size=base)))
    mu0 = mu0 / mu0.sum()
    subsets = st.lists(st.sampled_from(CG.ball(2).elements), unique=True, min_size=1, max_size=MAX_ELEMENTS[base])
    ball1 = CG.ball(1).elements  # E5 and E6's window
    elements = tuple(data.draw(st.one_of(st.just(ball1), subsets) if base == 2 else subsets))
    mu = CosetIidOracle(mu0, CG)
    assert np.array_equal(mu.marginal_elems(elements), _coset_iid_loop(mu.mu0, CG, elements))


# -- marginals through the pattern encoder against place-value references -------


def _product_place_value(mu, nu, elements):
    """Per-pattern indices of both factors as int64 place values, the way the
    product oracle coded them before it shared the encoder."""
    bx, by, m = mu.alphabet.size, nu.alphabet.size, len(elements)
    x_digits, y_digits = np.divmod(decode_patterns(bx * by, m), np.uint16(by))
    powx = bx ** np.arange(m - 1, -1, -1, dtype=np.int64)
    powy = by ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return mu.marginal_elems(elements)[x_digits @ powx] * nu.marginal_elems(elements)[y_digits @ powy]


def _coinduced_place_value(base, elements):
    """Fiber marginals indexed by int64 place values, fibers in order of
    first appearance."""
    b, m = base.alphabet.size, len(elements)
    fibers = {}
    for pos, (_, h) in enumerate(elements):
        fibers.setdefault(h, []).append(pos)
    patterns = decode_patterns(b, m)
    probs = np.ones(b**m)
    for positions in fibers.values():
        local = base.marginal_elems(tuple(elements[q][0] for q in positions))
        powers = b ** np.arange(len(positions) - 1, -1, -1, dtype=np.int64)
        probs *= local[patterns[:, positions] @ powers]
    return probs


def _periodic_orbit_loop(symbols, elements):
    """One shift of the orbit at a time, its pattern index summed in Python."""
    base, m, p = max(max(symbols) + 1, 2), len(elements), len(symbols)
    offsets = [sum(1 if s > 0 else -1 for s in w) for w in elements]
    powers = [base ** (m - 1 - i) for i in range(m)]
    probs = np.zeros(base**m)
    for shift in range(p):
        idx = sum(symbols[(off + shift) % p] * pw for off, pw in zip(offsets, powers))
        probs[idx] += 1.0 / p
    return probs


def _z_process(data, max_base):
    """A Bernoulli process with non-dyadic weights or a periodic orbit over Z."""
    base = data.draw(st.integers(1, max_base))
    if data.draw(st.booleans()):
        w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=base, max_size=base)))
        return bernoulli(w / w.sum(), Z)
    return periodic_orbit(_primitive_word(data, max(base, 2)), Z)


def _primitive_word(data, base):
    while True:
        word = "".join(map(str, data.draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=7))))
        if not any(len(word) % d == 0 and word == word[:d] * (len(word) // d) for d in range(1, len(word))):
            return word


def _distinct(data, elements, max_size):
    return tuple(data.draw(st.lists(st.sampled_from(elements), unique=True, min_size=1, max_size=max_size)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_periodic_orbit_equals_loop(data):
    word = _primitive_word(data, data.draw(st.integers(2, 4)))
    mu = periodic_orbit(word, Z)
    elements = _distinct(data, Z.ball(3).elements, 6)
    assert np.array_equal(mu.marginal_elems(elements), _periodic_orbit_loop(mu.symbols, elements))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_equals_place_value(data):
    mu, nu = _z_process(data, 3), _z_process(data, 3)
    most = int(np.log(1 << 14) / np.log(max(mu.alphabet.size * nu.alphabet.size, 2)))
    elements = _distinct(data, Z.ball(3).elements, min(most, 7))
    pair = product_process(mu, nu)
    assert np.array_equal(pair.marginal_elems(elements), _product_place_value(mu, nu, elements))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coinduced_equals_place_value(data):
    base = _z_process(data, 3)
    mu = coinduced(base, Z)
    most = int(np.log(1 << 14) / np.log(max(base.alphabet.size, 2)))
    pairs = [(g, h) for g in base.group.ball(2) for h in Z.ball(2)]  # the radius-2 box of G x Z
    elements = _distinct(data, pairs, min(most, 9))
    assert np.array_equal(mu.marginal_elems(elements), _coinduced_place_value(base, elements))

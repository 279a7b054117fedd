import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.groups import GroupSpec, Window, coind_group, reduce_word

F2 = GroupSpec.free(2)
Z = GroupSpec.integers()

letters_f2 = st.sampled_from([1, -1, 2, -2])
words_f2 = st.lists(letters_f2, max_size=20).map(tuple)


def test_reduce_word_cancellation():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((1, 1, -1)) == (1,)
    with pytest.raises(ValueError):
        reduce_word((0,))


@given(words_f2)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r


@given(words_f2, words_f2, words_f2)
def test_free_group_axioms(a, b, c):
    a, b, c = reduce_word(a), reduce_word(b), reduce_word(c)
    e = F2.identity()
    assert F2.multiply(F2.multiply(a, b), c) == F2.multiply(a, F2.multiply(b, c))
    assert F2.multiply(a, e) == a
    assert F2.multiply(a, F2.inverse(a)) == e


def _free_ball_size(rank: int, radius: int) -> int:
    """Closed-form reduced-word count: 1 + 2k * ((2k-1)^r - 1) / (2k-2)."""
    if radius == 0:
        return 1
    if rank == 1:
        return 2 * radius + 1
    k2 = 2 * rank
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)


def test_ball_sizes():
    assert len(F2.ball(0)) == 1
    assert len(F2.ball(1)) == 5
    assert len(F2.ball(2)) == 17
    assert len(Z.ball(1)) == 3
    assert len(Z.ball(3)) == 7
    for rank in (1, 2, 3):
        spec = GroupSpec.free(rank)
        for r in range(4):
            assert len(spec.ball(r)) == _free_ball_size(rank, r)


def test_ball_ordering_and_nesting():
    b1 = F2.ball(1)
    # identity first, then a < a^-1 < b < b^-1
    assert b1.elements == ((), (1,), (-1,), (2,), (-2,))
    for r in range(3):
        small = set(F2.ball(r).elements)
        big = set(F2.ball(r + 1).elements)
        assert small <= big


def test_window_identity_first():
    w = Window(Z, [(1,), (), (-1,)])
    assert w.elements[0] == ()
    assert w.elements.index(()) == 0
    assert (1,) in w
    with pytest.raises(ValueError):
        Window(Z, [(1,), (-1,)])  # no identity
    with pytest.raises(ValueError):
        Window(Z, [(), (1,), (1,)])  # duplicate


def test_window_translate():
    w = Window(Z, [(), (1,)])
    assert tuple(Z.multiply(f, (1,)) for f in w) == ((1,), (1, 1))


def test_coind_group_structure():
    G = coind_group()
    assert G.generator_labels() == ("a", "b", "a'", "b'")
    assert G.letter_factor(1) == 0 and G.letter_factor(2) == 0
    assert G.letter_factor(3) == 1 and G.letter_factor(4) == 1


def test_right_coset_keys():
    G = coind_group()
    # e and ab lie in H = <a,b>: same (empty) key
    assert G.right_coset_key((), 0) == ()
    assert G.right_coset_key((1, 2), 0) == ()
    # a*a' and b*a' differ by an H element on the left: same key
    assert G.right_coset_key((1, 3), 0) == G.right_coset_key((2, 3), 0) == (3,)
    # distinct coset representatives get distinct keys
    reps = [(), (3,), (4,), (3, 2), (3, 1, 4)]
    keys = {G.right_coset_key(g, 0) for g in reps}
    assert len(keys) == len(reps)
    # for the second factor H' = <a',b'>, e and a' share a coset, e and a do not
    assert G.right_coset_key((3,), 1) == G.right_coset_key((), 1) == ()
    assert G.right_coset_key((1,), 1) == (1,)
    with pytest.raises(ValueError):
        G.right_coset_key((), 2)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8))
@settings(max_examples=50)
def test_coset_key_constant_on_cosets(h_word):
    G = coind_group()
    g = (3, 2, 4)
    h = reduce_word(h_word)
    assert G.right_coset_key(G.multiply(h, g), 0) == G.right_coset_key(g, 0)


def test_direct_product_ball():
    P = GroupSpec.direct_product(F2, Z)
    with pytest.raises(ValueError):
        P.ball(1)

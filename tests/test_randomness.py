import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soficlab import randomness
from soficlab.randomness import (
    categorical,
    derive_seed,
    fisher_yates,
    partitioned_permutation,
    stream,
)


def test_stream_reproducible_and_label_sensitive():
    a = stream(1, "x").random(4)
    b = stream(1, "x").random(4)
    np.testing.assert_array_equal(a, b)
    c = stream(1, "y").random(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, stream(2, "x").random(4))
    # label boundaries matter: ("ab",) and ("a", "b") are distinct streams
    assert not np.array_equal(stream(1, "ab").random(4), stream(1, "a", "b").random(4))
    with pytest.raises(TypeError):
        stream(1, 1.5)


def test_derive_seed_properties():
    s = derive_seed(20260821, "sigma", 64)
    assert s == derive_seed(20260821, "sigma", 64)
    assert 0 <= s < 2**63
    assert s != derive_seed(20260821, "sigma", 65)
    assert s != derive_seed(20260822, "sigma", 64)


def test_seeds_hash_as_ints_and_labels_are_str_or_int():
    """stream and derive_seed hash a numpy-int seed as the Python int and
    refuse a numpy-int label."""
    assert derive_seed(np.int64(5), "a", 3) == derive_seed(5, "a", 3)
    np.testing.assert_array_equal(stream(np.int64(5), "a").random(4), stream(5, "a").random(4))
    for draw in (stream, derive_seed):
        with pytest.raises(TypeError, match="str or int"):
            draw(5, "a", np.int64(3))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_fisher_yates_is_permutation(seed, n):
    perm = fisher_yates(stream(seed, "fy"), n)
    assert sorted(perm.tolist()) == list(range(n))


def test_fisher_yates_uniform_on_three():
    counts = {}
    for i in range(3000):
        key = tuple(fisher_yates(stream(7, "unif", i), 3).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for v in counts.values():
        assert abs(v - 500) < 100
    with pytest.raises(ValueError):
        fisher_yates(stream(0), 0)


def _fisher_yates_scalar_loop(gen, n):
    """Reference: fisher_yates as it swapped numpy scalars in an int64 array."""
    perm = np.arange(n, dtype=np.int64)
    if n == 1:
        return perm
    draws = gen.integers(0, np.arange(n, 1, -1, dtype=np.int64))
    for idx, i in enumerate(range(n - 1, 0, -1)):
        j = draws[idx]
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1024, 4096])
def test_fisher_yates_matches_scalar_loop(n):
    for seed in (0, 1, 20260821, 2**32 - 1):
        gen, ref = stream(seed, "fy", n), stream(seed, "fy", n)
        perm = fisher_yates(gen, n)
        expect = _fisher_yates_scalar_loop(ref, n)
        assert perm.dtype == np.int64
        np.testing.assert_array_equal(perm, expect)
        assert gen.random() == ref.random()  # the stream is left where the loop left it


def test_partitioned_permutation_preserves_blocks():
    blocks = [np.array([0, 1, 2]), np.array([3, 4, 5, 6, 7])]
    perm = partitioned_permutation(stream(5, "pp"), blocks, 8)
    assert sorted(perm.tolist()) == list(range(8))
    assert set(perm[:3].tolist()) == {0, 1, 2}
    assert set(perm[3:].tolist()) == {3, 4, 5, 6, 7}


def test_partitioned_permutation_fixes_uncovered_indices():
    perm = partitioned_permutation(stream(5, "pp2"), [np.array([1, 2])], 4)
    assert perm[0] == 0 and perm[3] == 3
    assert set(perm[[1, 2]].tolist()) == {1, 2}


def test_categorical_frequencies_and_range():
    draws = categorical(stream(11, "cat"), np.array([0.5, 0.3, 0.2]), 20000)
    assert draws.dtype == np.uint8
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, [0.5, 0.3, 0.2], atol=0.02)
    point = categorical(stream(11, "cat2"), np.array([1.0, 0.0]), 100)
    assert np.all(point == 0)


def test_categorical_on_rounding_and_zero_weights():
    tenths = np.full(10, 0.1)
    assert np.cumsum(tenths)[-1] < 1.0
    for w in (tenths, np.array([0.0, 0.5, 0.0, 0.5, 0.0])):
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        expect = np.searchsorted(cdf, stream(3, "cat-round").random(5000), side="right")
        np.testing.assert_array_equal(categorical(stream(3, "cat-round"), w, 5000), expect)
    assert set(np.unique(categorical(stream(3, "cat-zero"), [0.0, 0.5, 0.0, 0.5, 0.0], 5000))) == {1, 3}


def test_categorical_searches_more_than_256_weights():
    assert categorical(stream(4, "cat-cap"), np.full(256, 1 / 256), 10).dtype == np.uint8
    w = np.full(257, 1 / 257)
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    expect = np.searchsorted(cdf, stream(4, "cat-cap").random(5000), side="right")
    got = categorical(stream(4, "cat-cap"), w, 5000)
    np.testing.assert_array_equal(got, expect)
    assert got.max() == 256


def _started(kind: str, seed: int) -> np.random.Generator:
    """A generator in one of the states a draw can start from."""
    if kind == "pcg64":
        return np.random.default_rng(seed)
    gen = stream(seed, "split")
    if kind == "after-random":
        gen.random(3)  # mid-block: one word of the current Philox block left
    elif kind == "after-int32":
        gen.integers(0, 1000, dtype=np.int32)  # a 32-bit half-word held back
    return gen


def _state(gen: np.random.Generator) -> dict:
    return {
        k: ({kk: np.asarray(vv).tolist() for kk, vv in v.items()} if isinstance(v, dict) else np.asarray(v).tolist())
        for k, v in gen.bit_generator.state.items()
    }


def _no_pool():
    raise AssertionError("a draw asked for the worker pool")


@given(
    st.sampled_from(["fresh", "after-random", "after-int32", "pcg64"]),
    st.integers(0, 5),
    st.integers(1, 13),
    st.sampled_from([2, 3, 256, 300]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_split_categorical_is_one_serial_draw(kind, rows, cols, k, seed):
    """A draw cut into 8-word chunks gives the symbols of one serial
    inverse-CDF draw, leaves the generator in its state, and never asks for
    the worker pool."""
    w = np.random.default_rng(seed).dirichlet(np.ones(k))
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    serial = _started(kind, seed)
    expect = np.searchsorted(cdf, serial.random((rows, cols)), side="right")
    gen = _started(kind, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomness, "DRAW_CHUNK", 8)
        mp.setattr(randomness, "_pool", _no_pool)
        got = categorical(gen, w, (rows, cols))
    assert got.dtype == (np.uint8 if k <= 256 else np.intp)
    np.testing.assert_array_equal(got, expect)
    assert _state(gen) == _state(serial)
    np.testing.assert_array_equal(gen.random(5), serial.random(5))
    np.testing.assert_array_equal(gen.integers(0, 1000, 5, dtype=np.int32), serial.integers(0, 1000, 5, dtype=np.int32))


def _set_buffer_pos(gen: np.random.Generator, pos: int) -> np.random.Generator:
    """gen with its current Philox block filled and `pos` of its 4 words drawn
    (pos 4: the block is spent, as in a fresh generator)."""
    gen.random(4 - gen.bit_generator.state["buffer_pos"] % 4)  # fill and spend a block
    state = gen.bit_generator.state
    state["buffer_pos"] = pos
    gen.bit_generator.state = state
    return gen


@given(
    st.one_of(
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 1.0 / 3.0, 0.7, 1.0]), min_size=1, max_size=12),
        # 257 weights with one atom: the cdf reaches exactly 1.0 at the atom
        st.integers(0, 256).map(lambda atom: [0.0] * atom + [1.0] + [0.0] * (256 - atom)),
        st.just([1.0 / 257] * 257),
    ),
    st.integers(0, 4),
    st.integers(0, 5 * 8 + 3),
    st.integers(0, 2**32 - 1),
)
@example([1.0, 0.0], 4, 20, 0)  # cdf[0] = 1.0 before the end: its cut-off 2^64 drops out
@example([0.5, 0.5, 0.0], 1, 33, 1)
@example([0.0, 0.0, 1.0], 0, 9, 2)
@example([0.1] * 10, 3, 40, 3)  # a cdf that rounds below 1 before the end
@example([0.2, 0.7, 1.0 / 3.0], 2, (5, 9), 4)
@settings(max_examples=120, deadline=None)
def test_categorical_equals_searchsorted(weights, pos, size, seed):
    """The symbols decided on raw words with integer cut-offs are those of
    searchsorted(cdf, gen.random(size), side="right") for 1 to 257 weights,
    zeros included, from every position in the current Philox block and
    across 8-word chunks, and the generator is left where random() leaves
    it."""
    w = np.asarray(weights)
    if w.sum() > 0:
        w = w / w.sum()  # cumsums that round below (or above) 1 before the last bin
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    gen, ref = (_set_buffer_pos(stream(seed, "raw"), pos) for _ in range(2))
    expect = np.searchsorted(cdf, ref.random(size), side="right")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomness, "DRAW_CHUNK", 8)
        got = categorical(gen, w, size)
    assert got.dtype == (np.uint8 if w.size <= 256 else np.intp)
    np.testing.assert_array_equal(got, expect)
    assert _state(gen) == _state(ref)
    assert gen.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_raw_word_cutoffs_at_drawn_words(seed):
    """A cdf entry equal to a drawn u, or one float either side of it, puts
    that word on its cut-off, where ceil(c * 2^53) * 2^11 must decide as
    u >= c does; draws are random, so no other test lands there."""
    drawn = stream(seed, "cut").random(64)
    for c in {*drawn, *np.nextafter(drawn, 0.0), *np.nextafter(drawn, 1.0)}:
        w = np.array([c, 1.0 - c])
        expect = np.searchsorted([c, 1.0], drawn, side="right")
        np.testing.assert_array_equal(categorical(stream(seed, "cut"), w, 64), expect)


def test_categorical_refuses_32_bit_raw_words():
    with pytest.raises(TypeError, match="64-bit"):
        categorical(np.random.Generator(np.random.MT19937(1)), [0.5, 0.5], 4)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_nested_map_runs_inline_on_pool_threads(workers):
    """A map called from a pool task runs inline on the task's thread, so
    with 1, 2 or 3 workers a nested map returns in order, where waiting on
    the pool would deadlock once every worker holds an outer task."""
    outer = {}

    def task(i):
        outer[i] = threading.get_ident()
        return randomness.pool_map(lambda j: (i, j, threading.get_ident()), list(range(4)))

    got = []
    pool = ThreadPoolExecutor(workers)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomness, "_pool", lambda: pool)
            runner = threading.Thread(target=lambda: got.append(randomness.pool_map(task, list(range(5)))), daemon=True)
            runner.start()
            runner.join(timeout=10)
    finally:
        pool.shutdown(cancel_futures=True)  # a deadlock ends when its queued tasks are cancelled
    assert not runner.is_alive(), "a nested map waited for the pool"
    assert got == [[[(i, j, outer[i]) for j in range(4)] for i in range(5)]]
    assert runner.ident not in outer.values()  # the outer tasks ran on the pool

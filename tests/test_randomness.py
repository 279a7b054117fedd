import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
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


@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.2, 1.0 / 3.0, 0.7, 1.0]), min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_categorical_equals_searchsorted(weights, seed):
    w = np.asarray(weights)
    if w.sum() > 0:
        w = w / w.sum()  # cumsums that round below (or above) 1 before the last bin
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    expect = np.searchsorted(cdf, stream(seed, "cat-eq").random((50, 40)), side="right").astype(np.uint8)
    np.testing.assert_array_equal(categorical(stream(seed, "cat-eq"), w, (50, 40)), expect)


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


@pytest.fixture(scope="module")
def pools():
    """Worker pools of 1, 2 and 3 threads; `_pool` gives None on one core."""
    with ThreadPoolExecutor(2) as two, ThreadPoolExecutor(3) as three:
        yield {1: None, 2: two, 3: three}


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


def test_draw_chunk_is_whole_philox_blocks():
    assert randomness.DRAW_CHUNK % 4 == 0


@given(
    st.sampled_from(["fresh", "after-random", "after-int32", "pcg64"]),
    st.integers(0, 5),
    st.integers(1, 13),
    st.sampled_from([2, 3, 256, 300]),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_split_categorical_is_one_serial_draw(pools, kind, rows, cols, k, workers, seed):
    """With 8-word pieces, a draw split over 1-3 workers gives the symbols
    of one serial inverse-CDF draw and leaves the generator in its state."""
    w = np.random.default_rng(seed).dirichlet(np.ones(k))
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    serial = _started(kind, seed)
    expect = np.searchsorted(cdf, serial.random((rows, cols)), side="right")
    gen = _started(kind, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomness, "DRAW_CHUNK", 8)
        mp.setattr(randomness, "_pool", lambda: pools[workers])
        got = categorical(gen, w, (rows, cols))
    assert got.dtype == (np.uint8 if k <= 256 else np.intp)
    np.testing.assert_array_equal(got, expect)
    assert _state(gen) == _state(serial)
    np.testing.assert_array_equal(gen.random(5), serial.random(5))
    np.testing.assert_array_equal(gen.integers(0, 1000, 5, dtype=np.int32), serial.integers(0, 1000, 5, dtype=np.int32))


def test_split_draws_under_fast_thread_switching(pools):
    """Three workers on fewer cores, switching threads every microsecond:
    each piece writes its own slice of the output, so every draw is still
    the serial one."""
    cdf = np.array([0.2, 0.5, 1.0])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomness, "DRAW_CHUNK", 64)
            mp.setattr(randomness, "_pool", lambda: pools[3])
            for i in range(20):
                got = categorical(stream(i, "stress"), [0.2, 0.3, 0.5], 5000)
                expect = np.searchsorted(cdf, stream(i, "stress").random(5000), side="right")
                np.testing.assert_array_equal(got, expect)
    finally:
        sys.setswitchinterval(interval)

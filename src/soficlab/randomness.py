"""Seeded randomness with explicit stream splitting.

Every randomized operation in this package draws from numpy's Philox generator,
a 64-bit counter-based PRNG. Independent streams are derived by hashing the
user seed together with a tuple of string/int labels (blake2b, 128-bit digest)
into the Philox key. Two streams with different labels are independent for all
practical purposes, and the derivation is stable across platforms and runs, so
equal seeds give bit-identical experiment tables.

A `categorical` draw runs serially on the caller's thread, in consecutive
chunks of DRAW_CHUNK raw words from the generator itself, and decides its
symbols on those raw 64-bit words: numpy's random() is (x >> 11) * 2^-53, so
u >= c exactly when x >= ceil(c * 2^53) * 2^11, an integer cut-off per cdf
entry. The symbols, and the generator state the caller is left with, are
those of one gen.random(size). A thread pool with one worker per usable core
runs, through `pool_map`, the independent units of E4 and E9, each of which
draws from streams of its own; every kernel and every draw runs serially on
its caller's thread.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import threading
from typing import Callable, Sequence, Tuple, Union

import numpy as np

Label = Union[str, int]

DRAW_CHUNK = 1 << 18  # raw words per chunk of a draw: bounds the word buffer at 2 MiB


@functools.lru_cache(maxsize=None)
def _pool():
    """The worker pool, built on first use with one thread per usable core;
    None on one core. concurrent.futures is imported here: importing it with
    the package adds 6-8 ms to every process start (Python 3.11, 2-core Xeon),
    and `validate` and `report` never use the pool."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cores < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cores, thread_name_prefix="soficlab")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)  # a forked child has no pool threads


_task = threading.local()  # `running` is True on a pool thread once it runs a task


def pool_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items] in order, on the pool when there are two items
    or more and the caller is not itself a pool task. It runs the independent
    units of E4 and E9, each of which builds what it mutates and draws from
    streams of its own; kernels and draws never use it. A map called from a
    pool task runs inline on that task's thread, so a nested map cannot
    deadlock."""
    pool = None if len(items) < 2 or getattr(_task, "running", False) else _pool()
    if pool is None:
        return [fn(x) for x in items]
    return list(pool.map(_run_task, itertools.repeat(fn), items))


def _run_task(fn: Callable, item):
    _task.running = True  # pool threads run nothing but tasks
    return fn(item)


def stream(seed: int, *labels: Label) -> np.random.Generator:
    """Return the Philox generator for (seed, labels).

    The key is blake2b(seed-and-labels) truncated to 128 bits. Labels must be
    strings or ints; they name the consumer (e.g. ("sofic", "a", 3) for the
    third permutation of generator a).
    """
    key = int.from_bytes(_digest(16, seed, labels), "little")
    return np.random.Generator(np.random.Philox(key=key))


def _digest(size: int, seed: int, labels: Tuple[Label, ...]) -> bytes:
    """blake2b of repr(int(seed)) and the labels, each after a zero byte; the
    one hashing rule of stream() and derive_seed()."""
    h = hashlib.blake2b(digest_size=size)
    h.update(repr(int(seed)).encode())
    for label in labels:
        if not isinstance(label, (str, int)):
            raise TypeError(f"labels must be str or int, got {type(label).__name__}")
        h.update(b"\x00")
        h.update(repr(label).encode())
    return h.digest()


def fisher_yates(gen: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random permutation of range(n) by seeded Fisher-Yates.

    Written out rather than delegating to Generator.permutation so the
    permutation is a documented function of the draw sequence.
    """
    if n < 1:
        raise ValueError("permutation size must be >= 1")
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    # One bounded draw per position, high side exclusive: j ~ U{0..i}. The
    # swaps run on Python lists: swapping numpy scalars costs about three
    # times as much.
    draws = gen.integers(0, np.arange(n, 1, -1, dtype=np.int64)).tolist()
    perm = list(range(n))
    for j, i in zip(draws, range(n - 1, 0, -1)):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def partitioned_permutation(gen: np.random.Generator, blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Uniform permutation of range(n) preserving each index block setwise."""
    perm = np.arange(n, dtype=np.int64)
    for block in blocks:
        block = np.asarray(block, dtype=np.int64)
        local = fisher_yates(gen, block.size)
        perm[block] = block[local]
    return perm


def categorical(gen: np.random.Generator, weights: np.ndarray, size: Union[int, Tuple[int, ...]]) -> np.ndarray:
    """Draw an array of shape `size` of iid symbols from the weights by
    inverse CDF: the symbol of u is searchsorted(cdf, u, side="right"), the
    number of j < |X| - 1 with cdf[j] <= u (the last cdf entry is never
    compared, as if it were 1.0 > u). It is decided on the raw words x of the bit generator, which
    must be one whose random() is (x >> 11) * 2^-53 (Philox, PCG64, SFC64):
    cdf[j] <= u exactly when x >= ceil(cdf[j] * 2^53) * 2^11, and a cut-off
    of 2^64 or more is never reached and drops out. For at most 256 weights
    the number is counted in uint8 without a search; more weights are
    searched and give intp symbols. The words are drawn serially on the
    caller's thread in chunks of DRAW_CHUNK; consecutive random_raw calls
    give the words, and leave the state, of one gen.random(size).
    """
    if isinstance(gen.bit_generator, np.random.MT19937):
        raise TypeError("MT19937 raw words are 32-bit; categorical needs a 64-bit bit generator")
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    steps = np.ceil(np.maximum(cdf[:-1], 0.0) * 2.0**53)  # exact: a power-of-two scale
    cuts = steps[steps < 2.0**53].astype(np.uint64) << np.uint64(11)
    out = np.zeros(size, dtype=np.uint8 if cdf.size <= 256 else np.intp)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, DRAW_CHUNK):
        x = gen.bit_generator.random_raw(min(DRAW_CHUNK, flat.size - lo))
        symbols = flat[lo : lo + x.size]
        if cdf.size > 256:
            symbols[:] = np.searchsorted(cuts, x, side="right")
        else:
            for c in cuts:
                symbols += x >= c
    return out


def derive_seed(seed: int, *labels: Label) -> int:
    """A 63-bit sub-seed for APIs that take an integer seed; same labeling
    scheme as stream(), so derived seeds never collide across labels."""
    return int.from_bytes(_digest(8, seed, labels), "big") >> 1


__all__ = ["stream", "fisher_yates", "partitioned_permutation", "categorical", "derive_seed", "pool_map"]

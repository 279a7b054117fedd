"""Seeded randomness with explicit stream splitting.

Every randomized operation in this package draws from numpy's Philox generator,
a 64-bit counter-based PRNG. Independent streams are derived by hashing the
user seed together with a tuple of string/int labels (blake2b, 128-bit digest)
into the Philox key. Two streams with different labels are independent for all
practical purposes, and the derivation is stable across platforms and runs, so
equal seeds give bit-identical experiment tables.

Philox is counter-based: word j of a stream is word j % 4 of the block at
counter c + 1 + j // 4. So a large `categorical` draw is split into pieces
of DRAW_CHUNK words, each drawn by a copy of the generator whose counter is
advanced to the piece's first block, and the pieces run on a thread pool with
one worker per usable core. The symbols, and the generator state the caller
is left with, are those of one serial draw whatever the number of cores. The
same pool maps the sub-slices of the good-model kernel (`models`). Pool tasks
call only private helpers: the benchmark's tracer wraps every public function
with one span stack per process.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

Label = Union[str, int]

DRAW_CHUNK = 1 << 18  # words per piece of a split draw; a multiple of the 4-word Philox block


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


def _map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items] in order, on the pool when there are two items
    or more. fn must call no public function of the package (see above)."""
    pool = _pool() if len(items) > 1 else None
    if pool is None:
        return [fn(x) for x in items]
    return list(pool.map(fn, items))


def stream(seed: int, *labels: Label) -> np.random.Generator:
    """Return the Philox generator for (seed, labels).

    The key is blake2b(seed-and-labels) truncated to 128 bits. Labels must be
    strings or ints; they name the consumer (e.g. ("sofic", "a", 3) for the
    third permutation of generator a).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(seed)).encode())
    for label in labels:
        if not isinstance(label, (str, int)):
            raise TypeError(f"stream labels must be str or int, got {type(label).__name__}")
        h.update(b"\x00")
        h.update(repr(label).encode())
    key = int.from_bytes(h.digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


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
    number of j < |X| - 1 with cdf[j] <= u (the last cdf entry is set to
    1.0 > u). For at most 256 weights that number is counted in uint8 without
    a search; more weights are searched and give intp symbols. Draws from a
    Philox stream are split by counter (see the module docstring); the result
    and the generator's final state are those of gen.random(size).
    """
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf[-1] = 1.0  # guard against round-off in the last bin
    out = np.zeros(size, dtype=np.uint8 if cdf.size <= 256 else np.intp)
    flat = out.reshape(-1)

    def fill(piece: Tuple[np.random.Generator, int, int]) -> None:
        piece_gen, lo, hi = piece
        u = piece_gen.random(hi - lo)
        if cdf.size > 256:
            flat[lo:hi] = np.searchsorted(cdf, u, side="right")
            return
        symbols = flat[lo:hi]
        for c in cdf[:-1]:
            symbols += u >= c

    pieces = _pieces(gen, flat.size)
    _map(fill, pieces)
    if len(pieces) > 1:
        # the last copy made the last blocks of the serial draw; random()
        # leaves gen's 32-bit half-word alone
        final = pieces[-1][0].bit_generator.state
        kept = gen.bit_generator.state
        final["has_uint32"], final["uinteger"] = kept["has_uint32"], kept["uinteger"]
        gen.bit_generator.state = final
    return out


def _pieces(gen: np.random.Generator, total: int) -> List[Tuple[np.random.Generator, int, int]]:
    """(generator, lo, hi) for words lo..hi of a draw of `total` words from gen.

    The first piece is drawn by gen itself: the words left in its current
    block and DRAW_CHUNK more. Each later piece starts at a block boundary,
    `offset` words past those left-over words, and is drawn by a fresh Philox
    generator at gen's counter advanced by offset // 4 blocks. Any other bit
    generator draws in one piece.
    """
    if not isinstance(gen.bit_generator, np.random.Philox):
        return [(gen, 0, total)]
    state = gen.bit_generator.state
    left = 4 - state["buffer_pos"]  # words of the current block not drawn yet
    pieces = [(gen, 0, min(total, left + DRAW_CHUNK))]
    for lo in range(left + DRAW_CHUNK, total, DRAW_CHUNK):
        copy = np.random.Philox(counter=state["state"]["counter"], key=state["state"]["key"])
        copy.advance((lo - left) // 4)
        pieces.append((np.random.Generator(copy), lo, min(total, lo + DRAW_CHUNK)))
    return pieces


def derive_seed(seed: int, *labels: Label) -> int:
    """A 63-bit sub-seed for APIs that take an integer seed; same labeling
    scheme as stream(), so derived seeds never collide across labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(seed).encode())
    for label in labels:
        h.update(b"\x00")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest(), "big") >> 1


__all__ = ["stream", "fisher_yates", "partitioned_permutation", "categorical", "derive_seed"]

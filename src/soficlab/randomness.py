"""Seeded randomness with explicit stream splitting.

Every randomized operation in this package draws from numpy's Philox generator,
a 64-bit counter-based PRNG. Independent streams are derived by hashing the
user seed together with a tuple of string/int labels (blake2b, 128-bit digest)
into the Philox key. Two streams with different labels are independent for all
practical purposes, and the derivation is stable across platforms and runs, so
equal seeds give bit-identical experiment tables.
"""

from __future__ import annotations

import hashlib
from typing import Tuple, Union

import numpy as np

Label = Union[str, int]


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
    perm = np.arange(n, dtype=np.int64)
    if n == 1:
        return perm
    # One bounded draw per position, high side exclusive: j ~ U{0..i}.
    draws = gen.integers(0, np.arange(n, 1, -1, dtype=np.int64))
    for idx, i in enumerate(range(n - 1, 0, -1)):
        j = draws[idx]
        perm[i], perm[j] = perm[j], perm[i]
    return perm


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
    a search; more weights are searched and give intp symbols.
    """
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf[-1] = 1.0  # guard against round-off in the last bin
    u = gen.random(size)
    if cdf.size > 256:
        return np.searchsorted(cdf, u, side="right")
    out = np.zeros(u.shape, dtype=np.uint8)
    for c in cdf[:-1]:
        out += u >= c
    return out


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

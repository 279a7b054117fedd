"""Canonical arithmetic for the finitely generated groups used by the experiments.

Supported kinds:
  free          free group F_k; elements are reduced words, stored as tuples of
                signed letters (+i / -i for generator i and its inverse, 1-based)
  free_product  free product of free factors; same reduced-word representation
                (it is free on the union of the generators) plus the
                letter -> factor bookkeeping needed for coset keys
  product       direct product G x H; elements are pairs of canonical forms,
                with arithmetic (identity, multiply, inverse) but no balls

The integers are the rank-1 free group with generator "a".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

FreeWord = Tuple[int, ...]
Element = Any  # FreeWord | tuple(left, right), per GroupSpec.kind

_DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _default_labels(rank: int) -> Tuple[str, ...]:
    if rank <= len(_DEFAULT_LETTERS):
        return tuple(_DEFAULT_LETTERS[:rank])
    return tuple(f"g{i}" for i in range(1, rank + 1))


def _letter_key(letter: int) -> int:
    # Orders a < a^-1 < b < b^-1 < ...
    return (abs(letter) - 1) * 2 + (0 if letter > 0 else 1)


def reduce_word(letters: Sequence[int]) -> FreeWord:
    """Free reduction: cancel adjacent letter/inverse pairs."""
    out: List[int] = []
    for s in letters:
        if s == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of a finitely generated group.

    Use the constructors `free`, `integers`, `free_product` and
    `direct_product` rather than __init__ directly.
    """

    kind: str
    labels: Tuple[str, ...] = ()
    factor_ranks: Tuple[int, ...] = ()
    factors: Tuple["GroupSpec", ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def free(rank: int, labels: Optional[Sequence[str]] = None) -> "GroupSpec":
        if rank < 1:
            raise ValueError("free rank must be >= 1")
        lab = tuple(labels) if labels is not None else _default_labels(rank)
        if len(lab) != rank or len(set(lab)) != rank:
            raise ValueError("need one distinct label per generator")
        return GroupSpec(kind="free", labels=lab)

    @staticmethod
    def integers() -> "GroupSpec":
        return GroupSpec.free(1)

    @staticmethod
    def free_product(*factors: "GroupSpec") -> "GroupSpec":
        if len(factors) < 2:
            raise ValueError("free product needs at least two factors")
        if any(f.kind != "free" for f in factors):
            raise ValueError("free products are supported for free factors only")
        labels: List[str] = []
        for f in factors:
            labels.extend(f.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("factor generator labels must be globally distinct")
        return GroupSpec(
            kind="free_product",
            labels=tuple(labels),
            factor_ranks=tuple(len(f.labels) for f in factors),
        )

    @staticmethod
    def direct_product(left: "GroupSpec", right: "GroupSpec") -> "GroupSpec":
        return GroupSpec(kind="product", factors=(left, right))

    # -- basic structure ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    def is_integers(self) -> bool:
        return self.kind == "free" and self.rank == 1

    def generator_labels(self) -> Tuple[str, ...]:
        if self.kind == "product":
            left, right = self.factors
            return left.generator_labels() + tuple(
                _disambiguate(lab, left.generator_labels()) for lab in right.generator_labels()
            )
        return self.labels

    def letter_factor(self, letter: int) -> int:
        """Index of the free factor owning a letter of a free_product."""
        if self.kind != "free_product":
            raise ValueError("letter_factor applies to free products")
        idx = abs(letter) - 1
        for fi, r in enumerate(self.factor_ranks):
            if idx < r:
                return fi
            idx -= r
        raise ValueError(f"letter {letter} out of range")

    # -- element arithmetic --------------------------------------------------

    def identity(self) -> Element:
        if self.kind in ("free", "free_product"):
            return ()
        left, right = self.factors
        return (left.identity(), right.identity())

    def multiply(self, a: Element, b: Element) -> Element:
        if self.kind in ("free", "free_product"):
            self._check_word(a)
            self._check_word(b)
            return reduce_word(tuple(a) + tuple(b))
        left, right = self.factors
        return (left.multiply(a[0], b[0]), right.multiply(a[1], b[1]))

    def inverse(self, a: Element) -> Element:
        if self.kind in ("free", "free_product"):
            self._check_word(a)
            return tuple(-s for s in reversed(a))
        left, right = self.factors
        return (left.inverse(a[0]), right.inverse(a[1]))

    def _check_word(self, w: Element) -> None:
        for s in w:
            if s == 0 or abs(s) > self.rank:
                raise ValueError(f"letter {s} is not a declared generator")

    def sort_key(self, a: Element):
        """Deterministic total order on reduced words: (word length, letter order)."""
        return (len(a), tuple(_letter_key(s) for s in a))

    def word_of(self, a: Element) -> FreeWord:
        """The reduced word of the element, in signed 1-based generator
        indices. Not defined for direct products (use the component words).
        """
        if self.kind in ("free", "free_product"):
            self._check_word(a)
            return tuple(a)
        raise ValueError("word_of is not defined for direct products")

    # -- windows -------------------------------------------------------------

    def ball(self, radius: int) -> "Window":
        """All elements of word length <= radius, identity first, sorted.
        Not defined for direct products."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if self.kind == "product":
            raise ValueError("ball is not defined for direct products")
        k = self.rank
        letters = sorted(range(-k, k + 1), key=lambda s: _letter_key(s) if s else -1)
        letters = [s for s in letters if s != 0]
        frontier: List[FreeWord] = [()]
        out: List[FreeWord] = [()]
        for _ in range(radius):
            nxt: List[FreeWord] = []
            for w in frontier:
                for s in letters:
                    if w and w[-1] == -s:
                        continue
                    nxt.append(w + (s,))
            out.extend(nxt)
            frontier = nxt
        return Window(self, tuple(sorted(out, key=self.sort_key)))

    # -- coset keys ------------------------------------------------------------

    def right_coset_key(self, g: Element, factor: int) -> FreeWord:
        """Canonical key of the right coset H·g for the given free factor H.

        Keys agree iff g·g'^-1 lies in H; computed by stripping the maximal
        leading H-syllable of the reduced word.
        """
        if self.kind != "free_product":
            raise ValueError("right_coset_key applies to free products")
        if not (0 <= factor < len(self.factor_ranks)):
            raise ValueError(f"no free factor with index {factor}")
        self._check_word(g)
        i = 0
        while i < len(g) and self.letter_factor(g[i]) == factor:
            i += 1
        return tuple(g[i:])


def _disambiguate(label: str, taken: Tuple[str, ...]) -> str:
    while label in taken:
        label += "'"
    return label


def coind_group() -> GroupSpec:
    """The free product of two rank-2 free groups, generators a, b, a', b'."""
    return GroupSpec.free_product(
        GroupSpec.free(2, ["a", "b"]), GroupSpec.free(2, ["a'", "b'"])
    )


class Window:
    """Finite ordered set of group elements with the identity at index 0."""

    __slots__ = ("elements",)

    def __init__(self, spec: GroupSpec, elements: Sequence[Element]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("window must be nonempty")
        ident = spec.identity()
        if elems[0] != ident:
            if ident not in elems:
                raise ValueError("window must contain the identity")
            elems = (ident,) + tuple(g for g in elems if g != ident)
        if len(set(elems)) != len(elems):
            raise ValueError("window elements must be distinct")
        self.elements = elems

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)


__all__ = ["GroupSpec", "Window", "reduce_word", "coind_group"]

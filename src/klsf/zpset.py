"""Value-semantic subsets of Z_p with sumset arithmetic and progression analysis.

A subset of Z_p is stored as a p-bit mask (bit i set iff residue i belongs to
the set): the n = 1 case of the mask format of `klsf.modmath`, whose kernel
does every conversion, every sumset, fold and sum-freeness test and every
shortest AP cover (one row of `modmath.ap_covers`, the scan the covering
lab runs on batches of sets), so ZpSet is a typed view over it.
All operations are pure: they return fresh values and never mutate their
inputs, so values can be shared freely across threads.

Conventions used throughout:
  * hA is the h-fold sumset (all sums of h elements, repetition allowed),
    while c*A denotes the dilation {c*a : a in A}.  The additive-group
    automorphisms of Z_p are exactly the dilations by c != 0.
  * A is (k,l)-sum-free iff kA and lA are disjoint (k > l >= 1).
  * e_d(A) counts pairs (x, y) with x in A, y not in A and x - y = +-d,
    for d in [1, (p-1)/2].  A with 2 <= |A| <= p-2 is an arithmetic
    progression of common difference d iff e_d(A) = 2.  Wrapped differences
    are folded to min(d, p-d) so the index range stays [1, (p-1)/2].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .modmath import (
    MaskSet, ap_covers, fold_masks, indices_to_mask, is_kl_sumfree_mask, is_prime, mask_to_indices,
    rotate_mask, sumset_mask,
)


class ZpSetError(ValueError):
    """Raised for malformed residue sets or incompatible operands."""


class ZpSet(MaskSet):
    """An immutable subset of Z_p backed by a bit mask (set algebra: MaskSet)."""

    __slots__ = ("p", "mask")
    n = 1
    _error = ZpSetError
    _mismatch = "incompatible moduli"

    def __init__(self, p: int, elements=()):
        if not is_prime(p):
            raise ZpSetError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)
        elements = list(elements)
        for e in elements:
            if not isinstance(e, (int, np.integer)):
                raise ZpSetError(f"residue {e!r} is not an integer")
            if not 0 <= e < p:
                raise ZpSetError(f"residue {e} out of range for modulus {p}")
        object.__setattr__(self, "mask", indices_to_mask(elements))

    @classmethod
    def from_mask(cls, p: int, mask: int) -> "ZpSet":
        if not is_prime(p):
            raise ZpSetError(f"modulus {p} is not prime")
        return cls._new(p, mask)

    @classmethod
    def _new(cls, p: int, mask: int) -> "ZpSet":
        # from_mask once p is known to be prime: only the mask's range is checked.
        if mask < 0 or mask >> p:
            raise ZpSetError("mask has bits outside [0, p)")
        out = cls.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "mask", mask)
        return out

    @classmethod
    def interval(cls, p: int, start: int, length: int) -> "ZpSet":
        """The cyclic interval {start, start+1, ..., start+length-1} mod p."""
        if length < 0 or length > p:
            raise ZpSetError(f"interval length {length} out of range")
        return cls.from_mask(p, rotate_mask((1 << length) - 1, start, p))

    def _with_mask(self, mask: int) -> "ZpSet":
        return ZpSet._new(self.p, mask)

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.p and (self.mask >> e) & 1 == 1

    def __iter__(self):
        return iter(mask_to_indices(self.mask).tolist())

    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ZpSet(p={self.p}, {{{', '.join(map(str, self))}}})"

    def shift(self, t: int) -> "ZpSet":
        """Translate by t: {a + t mod p}."""
        return self._with_mask(rotate_mask(self.mask, t, self.p))


# ---------------------------------------------------------------------------
# Sumset arithmetic


def sumset(a: ZpSet, b: ZpSet) -> ZpSet:
    """A + B = {x + y mod p}, by the kernel's `sumset_mask`.  A naive double
    loop over all pairs serves as the independent test oracle."""
    a._check_space(b)
    return a._with_mask(sumset_mask(a.p, 1, a.mask, b.mask))


def hfold(a: ZpSet, h: int) -> ZpSet:
    """The h-fold sumset hA = (h-1)A + A; hA = A when h = 1."""
    if h < 1:
        raise ZpSetError("h must be positive")
    return a._with_mask(fold_masks(a.p, 1, a.mask, h)[-1])


def dilate(a: ZpSet, c: int) -> ZpSet:
    """The dilation c*A = {c*a mod p}, c != 0: a bijective relabeling of Z_p."""
    p = a.p
    c %= p
    if c == 0:
        raise ZpSetError("dilation by zero")
    if c == 1:
        return a
    return a._with_mask(indices_to_mask([c * x % p for x in a]))


def is_kl_sumfree(a: ZpSet, k: int, l: int) -> bool:
    """True iff kA and lA are disjoint.  Requires k > l >= 1 and A nonempty."""
    if not k > l >= 1:
        raise ZpSetError("require k > l")
    if a.is_empty():
        raise ZpSetError("sum-freeness is defined for nonempty sets")
    return is_kl_sumfree_mask(a.p, 1, a.mask, k, l)


# ---------------------------------------------------------------------------
# e_d statistics and arithmetic progressions


@dataclass(frozen=True)
class EdProfile:
    """Counts e_d for d in [1, (p-1)/2]; the multiset is dilation-invariant."""

    p: int
    counts: dict

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts.values()))

    def __getitem__(self, d: int) -> int:
        return self.counts[d]


def ed_count(a: ZpSet, d: int) -> int:
    # Pairs (x, y), x in A, y outside, at cyclic difference d: each arc of A
    # along the d-step cycle contributes one pair at each end.
    p = a.p
    shifted = rotate_mask(a.mask, d, p)
    inter = (a.mask & shifted).bit_count()
    return 2 * (len(a) - inter)


def ed_profile(a: ZpSet) -> EdProfile:
    p = a.p
    return EdProfile(p, {d: ed_count(a, d) for d in range(1, (p - 1) // 2 + 1)})


def is_ap(a: ZpSet) -> list[int]:
    """Every admissible common difference d in [1, (p-1)/2] for which A is an AP.

    Degenerate sizes are fixed by convention: 1 and p-1 admit every
    difference, the empty set none, the full set all of them.
    """
    p = a.p
    all_d = list(range(1, (p - 1) // 2 + 1))
    n = len(a)
    if n == 0:
        return []
    if n in (1, p - 1, p):
        return all_d
    return [d for d in all_d if ed_count(a, d) == 2]


# ---------------------------------------------------------------------------
# Interval and AP covers


@dataclass(frozen=True)
class ApCover:
    """The AP {start, start+diff, ..., start+(length-1)*diff} mod p."""

    p: int
    start: int
    diff: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= self.p:
            raise ZpSetError("cover length must lie in [0, p]")
        if self.diff % self.p == 0:
            raise ZpSetError("cover difference must be nonzero")

    def positions(self) -> list[int]:
        return [(self.start + i * self.diff) % self.p for i in range(self.length)]

    def as_set(self) -> ZpSet:
        return ZpSet(self.p, self.positions())


def min_ap_cover(a: ZpSet) -> ApCover:
    """Shortest AP cover over all differences d in [1, (p-1)/2].

    Ties across differences go to the smallest d, then (within d) to the
    smallest start of the interval cover of d^(-1)*A.
    """
    if a.is_empty():
        raise ZpSetError("empty set has no cover")
    d, start, length = (int(x[0]) for x in ap_covers(a.p, mask_to_indices(a.mask)[None]))
    return ApCover(a.p, start, d, length)


def holes(a: ZpSet, cover: ApCover) -> list[int]:
    """Lengths of the maximal gaps of A strictly inside `cover`.

    A gap is a maximal run of cover positions missing from A whose flanking
    positions (still inside the cover) both belong to A; runs touching either
    end of the cover are not gaps.  Listed in cyclic order from cover.start.
    """
    pos = cover.positions()
    if a.mask & ~ZpSet(a.p, pos).mask:
        raise ZpSetError("cover does not contain the set")
    inside = [x in a for x in pos]
    out: list[int] = []
    j = 0
    L = len(pos)
    while j < L:
        if inside[j]:
            j += 1
            continue
        j2 = j
        while j2 + 1 < L and not inside[j2 + 1]:
            j2 += 1
        if j > 0 and j2 < L - 1:
            out.append(j2 - j + 1)
        j = j2 + 1
    return out


# ---------------------------------------------------------------------------
# (k, l)-sum witnesses


def find_kl_sums(c: ZpSet, k: int, l: int, max_distinct: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (k,l)-sums r_1+...+r_k = s_1+...+s_l with every term in C.

    A solution is a pair of sorted multisets (left with k terms, right with l)
    using at most `max_distinct` distinct values in total.  The result is
    sorted by (left, right) so reports are reproducible.
    """
    if not k > l >= 1:
        raise ZpSetError("require k > l")
    if max_distinct < 1:
        raise ZpSetError("max_distinct must be positive")
    p = c.p
    elems = c.elements()
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for left in combinations_with_replacement(elems, k):
        by_sum.setdefault(sum(left) % p, []).append(left)
    out = []
    for right in combinations_with_replacement(elems, l):
        for left in by_sum.get(sum(right) % p, ()):
            if len(set(left) | set(right)) <= max_distinct:
                out.append((left, right))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Set-literal text format: p=<prime>;{e1,e2,...} or p=<prime>;[a,b] (cyclic)


def parse_zpset(text: str) -> ZpSet:
    text = text.strip()
    try:
        head, body = text.split(";", 1)
        key, val = head.split("=", 1)
        if key.strip() != "p":
            raise ValueError
        p = int(val)
    except ValueError:
        raise ZpSetError(f"malformed set literal: {text!r}") from None
    body = body.strip()
    if body.startswith("[") and body.endswith("]"):
        try:
            a, b = map(int, body[1:-1].split(","))
        except ValueError:
            raise ZpSetError(f"interval bounds must be two ints [a,b] in {text!r}") from None
        if not (0 <= a < p and 0 <= b < p):
            raise ZpSetError(f"interval bounds out of range in {text!r}")
        return ZpSet.interval(p, a, (b - a) % p + 1)
    if body.startswith("{") and body.endswith("}"):
        inner = body[1:-1].strip()
        if not inner:
            return ZpSet(p)
        try:
            elems = [int(tok) for tok in inner.split(",")]
        except ValueError:
            raise ZpSetError(f"set elements must be ints in {text!r}") from None
        if len(elems) != len(set(elems)):
            raise ZpSetError(f"duplicate residues in {text!r}")
        return ZpSet(p, elems)
    raise ZpSetError(f"malformed set literal: {text!r}")


def format_zpset(a: ZpSet) -> str:
    p = a.p
    if a.is_full():
        return f"p={p};[0,{p - 1}]"
    if len(a) >= 2:
        # A is an interval iff exactly one x in A has x - 1 outside A.
        starts = a.mask & ~rotate_mask(a.mask, 1, p)
        if starts.bit_count() == 1:
            start = starts.bit_length() - 1
            return f"p={p};[{start},{(start + len(a) - 1) % p}]"
    return f"p={p};{{{','.join(map(str, a))}}}"

"""Subsets of F_p^n: group arithmetic, automorphisms, and the lines of F_p^2.

A subset of F_p^n is a bit mask over p^n cells indexed in little-endian mixed
radix: index(x) = sum x_i * p^i, so coordinate 0 is the least significant
digit.  That format is defined once, in `klsf.modmath`, whose kernel does
every conversion between masks, indices, bit arrays and coordinate rows and
every sumset, fold, sum-freeness test and stabilizer; VecSet is a typed view
over it.  Masks are portable integers; the hex dump used in golden files is
the little-endian byte string of that integer.

Line l of F_p^2 is a line K = span{k} through the origin together with a
transversal v (`line_basis`), so every x splits uniquely as x = i*v + c*k.
The part A_i = {c : i*v + c*k in A} is a subset of Z_p, and one table,
`line_bases`, holds the map x -> (i, c) of every line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modmath import (
    GeneratorCheckError, MaskSet, bits_to_mask, fold_masks, indices_to_mask, indices_to_rows,
    is_kl_sumfree_mask, is_prime, mask_to_bits, mask_to_indices, mod_inverse, rows_to_indices,
    stabilizer_mask, sumset_mask,
)
from .zpset import ZpSet, parse_zpset


class VecSetError(ValueError):
    """Raised for malformed vector sets or incompatible operands."""


class CriterionError(ValueError):
    """Raised when a structural criterion is applied outside its hypotheses."""


# ---------------------------------------------------------------------------
# Linear algebra mod p (tiny dense matrices)


def mat_det(m: list[list[int]], p: int) -> int:
    a = [row[:] for row in m]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = mod_inverse(a[col][col], p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


# ---------------------------------------------------------------------------
# VecSet


class VecSet(MaskSet):
    """An immutable subset of F_p^n (n >= 0) backed by a p^n-bit mask (set algebra: MaskSet)."""

    __slots__ = ("p", "n", "mask")
    _error = VecSetError

    def __init__(self, p: int, n: int, vectors=()):
        if not is_prime(p):
            raise VecSetError(f"modulus {p} is not prime")
        if n < 0:
            raise VecSetError("dimension must be >= 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", indices_to_mask(rows_to_indices(self._rows(vectors), p)))

    def _rows(self, vectors) -> np.ndarray:
        """The vectors as coordinate rows, after checking arity and range."""
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != self.n:
                raise VecSetError(f"vector {v} has wrong arity for dimension {self.n}")
        rows = np.array(vecs, dtype=np.int64).reshape(len(vecs), self.n)
        bad = (rows < 0) | (rows >= self.p)
        if bad.any():
            raise VecSetError(f"coordinate {rows[bad][0]} out of range mod {self.p}")
        return rows

    @classmethod
    def from_mask(cls, p: int, n: int, mask: int) -> "VecSet":
        if not is_prime(p):
            raise VecSetError(f"modulus {p} is not prime")
        return cls._new(p, n, mask)

    @classmethod
    def _new(cls, p: int, n: int, mask: int) -> "VecSet":
        # from_mask once p is known to be prime: only the mask's range is checked.
        if mask < 0 or mask >> p**n:
            raise VecSetError("mask has bits outside the cell range")
        out = cls.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "mask", mask)
        return out

    @classmethod
    def from_indices(cls, p: int, n: int, indices) -> "VecSet":
        indices = list(indices)
        if indices and min(indices) < 0:
            raise VecSetError("negative cell index")
        return cls.from_mask(p, n, indices_to_mask(indices))

    @classmethod
    def from_zpset(cls, a: ZpSet) -> "VecSet":
        return cls._new(a.p, 1, a.mask)

    @classmethod
    def full(cls, p: int, n: int) -> "VecSet":
        return cls.from_mask(p, n, (1 << p**n) - 1)

    def to_zpset(self) -> ZpSet:
        if self.n != 1:
            raise VecSetError("only 1-dimensional sets round-trip to ZpSet")
        return ZpSet._new(self.p, self.mask)

    def _with_mask(self, mask: int) -> "VecSet":
        return VecSet._new(self.p, self.n, mask)

    def vectors(self):
        return iter(map(tuple, indices_to_rows(self.index_array(), self.p, self.n).tolist()))

    __iter__ = vectors

    def __contains__(self, v) -> bool:
        return (self.mask >> int(rows_to_indices(self._rows([v]), self.p)[0])) & 1 == 1

    def __repr__(self) -> str:
        return f"VecSet(p={self.p}, n={self.n}, size={len(self)})"

    def translate(self, g) -> "VecSet":
        """A + g, as the sumset with {g}; coordinates of g are taken mod p."""
        g = [int(c) % self.p for c in g]
        return self._with_mask(sumset_mask(
            self.p, self.n, self.mask, indices_to_mask(rows_to_indices(self._rows([g]), self.p))))

    def index_array(self) -> np.ndarray:
        return mask_to_indices(self.mask)

    def bit_array(self) -> np.ndarray:
        """Dense 0/1 array over the p^n cells, little-endian bit order."""
        return mask_to_bits(self.mask, self.p**self.n)

    @classmethod
    def from_bit_array(cls, p: int, n: int, bits: np.ndarray) -> "VecSet":
        return cls.from_mask(p, n, bits_to_mask(bits))

    def mask_hex(self) -> str:
        cells = self.p**self.n
        return self.mask.to_bytes((cells + 7) // 8, "little").hex()


# ---------------------------------------------------------------------------
# Sumsets over F_p^n


def vsumset(a: VecSet, b: VecSet) -> VecSet:
    """Componentwise-mod-p sumset A + B, by the kernel's `sumset_mask`."""
    a._check_space(b)
    return a._with_mask(sumset_mask(a.p, a.n, a.mask, b.mask))


def vhfold(a: VecSet, h: int) -> VecSet:
    if h < 1:
        raise VecSetError("h must be positive")
    return a._with_mask(fold_masks(a.p, a.n, a.mask, h)[-1])


def vec_is_kl_sumfree(a: VecSet, k: int, l: int) -> bool:
    if not k > l >= 1:
        raise VecSetError("require k > l")
    if a.is_empty():
        raise VecSetError("sum-freeness is defined for nonempty sets")
    return is_kl_sumfree_mask(a.p, a.n, a.mask, k, l)


def apply_automorphism(a: VecSet, m: list[list[int]]) -> VecSet:
    """Image {Mx : x in A} under an invertible linear map of F_p^n."""
    p, n = a.p, a.n
    if len(m) != n or any(len(row) != n for row in m):
        raise VecSetError("matrix shape does not match the dimension")
    if mat_det(m, p) == 0:
        raise VecSetError("not an automorphism")
    if a.is_empty():
        return a
    imaged = indices_to_rows(a.index_array(), p, n) @ np.array(m, dtype=np.int64).T % p
    return a._with_mask(indices_to_mask(rows_to_indices(imaged, p)))


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class Params:
    """The tuple (k, l, p, n) with the derived quantities m, lam and theta.

    p = (k+l)*m + 2 + lam with m = floor((p-2)/(k+l)); the standard theorems
    require lam in [0, k+l-3] and that window is what `lambda_in_range`
    reports.  theta = p - (m-1)(k+l) = k + l + lam + 2.
    """

    k: int
    l: int
    p: int
    n: int = 1

    def __post_init__(self):
        if not self.k > self.l >= 1:
            raise VecSetError("require k > l")
        if not is_prime(self.p):
            raise VecSetError(f"modulus {self.p} is not prime")
        if self.n < 1:
            raise VecSetError("dimension must be >= 1")

    @property
    def m(self) -> int:
        return (self.p - 2) // (self.k + self.l)

    @property
    def lam(self) -> int:
        return self.p - 2 - self.m * (self.k + self.l)

    @property
    def theta(self) -> int:
        return self.k + self.l + self.lam + 2

    def lambda_in_range(self) -> bool:
        return self.m >= 1 and self.lam <= self.k + self.l - 3

    def extremal_orbit_count(self) -> int:
        return (self.lam + 2) // 2  # ceil((lam+1)/2)


# ---------------------------------------------------------------------------
# The p+1 lines of F_p^2


@lru_cache(maxsize=16)
def line_bases(p: int) -> np.ndarray:
    """Read-only (p+1, 2, 2) table: entry l inverts line l's basis matrix
    [v | k], so it maps x to the (i, c) with x = i*v + c*k (`line_basis`).

    In closed form: the identity for line 0, the swap for line 1, and rows
    (1, -1/t), (0, 1/t) for line t+1, since x = (x0 - x1/t)*e0 + (x1/t)*(1, t).
    """
    inv = [mod_inverse(t, p) for t in range(1, p)]
    b = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]] + [[[1, p - x], [0, x]] for x in inv],
                 dtype=np.int64)
    b.setflags(write=False)
    return b


def line_basis(p: int, line: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(v, k) of line `line` of F_p^2: the line K = span{k} runs over
    span{(0,1)} and then span{(1,t)} for t = 0..p-1, and v is the least
    standard basis vector outside K."""
    if line == 0:
        return (1, 0), (0, 1)
    return (0, 1) if line == 1 else (1, 0), (1, line - 1)


def line_part_sizes(a: VecSet) -> np.ndarray:
    """(p+1, p) part-size matrix of A in F_p^2: entry (l, i) is |A_i| along
    line l, the number of c with i*v + c*k in A.

    One product of A's coordinate rows with row 0 of every `line_bases`
    entry and one offset bincount give all p+1 line profiles at once.
    """
    p = a.p
    if a.n != 2:
        raise VecSetError("line part sizes need n = 2")
    f = line_bases(p)[:, 0]
    coords = indices_to_rows(a.index_array(), p, 2) @ f.T
    coords %= p
    coords += np.arange(len(f), dtype=np.int64) * p
    counts = np.bincount(coords.ravel(), minlength=(p + 1) * p).reshape(p + 1, p)
    if (counts.sum(axis=1) != len(a)).any():
        raise GeneratorCheckError("line part sizes do not sum to |A|: implementation bug")
    return counts


def line_parts(a: VecSet, line: int) -> list[int]:
    """The p part masks of A in F_p^2 along line `line`: bit c of mask i is
    set iff i*v + c*k lies in A, with (v, k) = line_basis(p, line)."""
    p = a.p
    if a.n != 2:
        raise VecSetError("line parts need n = 2")
    coords = indices_to_rows(a.index_array(), p, 2) @ line_bases(p)[line].T % p
    bits = np.zeros((p, p), dtype=bool)
    bits[coords[:, 0], coords[:, 1]] = True
    if np.count_nonzero(bits) != len(a):
        raise GeneratorCheckError(f"parts along line {line} miss elements of A: implementation bug")
    return bits_to_mask(bits)


# ---------------------------------------------------------------------------
# Stabilizers and Kneser's bound


def sym_group(s: VecSet) -> VecSet:
    """The stabilizer {g : g + A = A}; always a subspace of F_p^n.

    Convention: the whole space stabilizes the empty set, so sym_group of an
    empty input is the full space (callers that care should flag this).
    """
    return s._with_mask(stabilizer_mask(s.p, s.n, s.mask))


def kneser_gap(sets: list[VecSet]) -> tuple[int, int]:
    """Both sides of Kneser's bound for |A_1 + ... + A_k|.

    Returns (lhs, rhs) with lhs = |sum of the sets| and
    rhs = sum |A_i + H| - (k-1)|H| where H stabilizes the total sumset.
    """
    if not sets:
        raise VecSetError("need at least one set")
    if any(x.is_empty() for x in sets):
        raise VecSetError("Kneser's bound needs nonempty sets")
    total = sets[0]
    for x in sets[1:]:
        total = vsumset(total, x)
    h = sym_group(total)
    lhs = len(total)
    rhs = sum(len(vsumset(x, h)) for x in sets) - (len(sets) - 1) * len(h)
    if lhs < rhs:
        raise GeneratorCheckError(f"Kneser bound violated ({lhs} < {rhs}): implementation bug")
    return lhs, rhs


# ---------------------------------------------------------------------------
# Literal text format: p=<prime>;n=<dim>;{(a,b,...),...}


def parse_vecset(text: str) -> VecSet:
    parts = text.strip().split(";")
    if len(parts) == 2:
        return VecSet.from_zpset(parse_zpset(text))
    if len(parts) != 3:
        raise VecSetError(f"malformed vector-set literal: {text!r}")
    p = _parse_kv(parts[0], "p", text)
    n = _parse_kv(parts[1], "n", text)
    body = parts[2].strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise VecSetError(f"malformed vector-set literal: {text!r}")
    vecs = parse_vectors(body)
    if len(set(vecs)) != len(vecs):
        dup = next(v for i, v in enumerate(vecs) if v in vecs[:i])
        raise VecSetError(f"duplicate vector {dup} in literal")
    return VecSet(p, n, vecs)


def parse_vectors(text: str) -> tuple[tuple[int, ...], ...]:
    """A list of vectors: "(1,0);(0,1)" or "{(1,0),(0,1)}" (groups in
    parentheses, separated by commas, semicolons or whitespace), or "1,5" /
    "{1,5}" for one-coordinate vectors.  Blank text, "{}" and a bare "()" are
    no vectors; any other text, an unclosed group or an empty coordinate is
    refused."""
    body = text.strip()
    if body == "()":
        return ()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    pieces = re.split(r"\(([^()]*)\)", body)
    stray = next((x for x in pieces[::2] if not re.fullmatch(r"[\s,;]*", x)), None)
    if len(pieces) > 1 and stray is not None:
        raise VecSetError(f"unexpected {stray.strip()!r} between the groups of {text!r}")
    try:
        if len(pieces) == 1:
            return tuple((int(tok),) for tok in body.split(",")) if body.strip() else ()
        return tuple(tuple(map(int, grp.split(","))) if grp.strip() else () for grp in pieces[1::2])
    except ValueError as exc:
        raise VecSetError(f"malformed vector list {text!r}: {exc}") from None


def _parse_kv(tok: str, key: str, text: str) -> int:
    k, _, v = tok.partition("=")
    try:
        if k.strip() != key:
            raise ValueError
        return int(v)
    except ValueError:
        raise VecSetError(f"expected {key}=<int>, got {tok!r} in {text!r}") from None


def format_vecset(a: VecSet) -> str:
    body = ",".join("(" + ",".join(map(str, v)) + ")" for v in a.vectors())
    return f"p={a.p};n={a.n};{{{body}}}"

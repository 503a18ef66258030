"""Subsets of F_p^n: group arithmetic, automorphisms, and hyperplane decompositions.

A subset of F_p^n is a bit mask over p^n cells indexed in little-endian mixed
radix: index(x) = sum x_i * p^i, so coordinate 0 is the least significant
digit.  That format is defined once, in `klsf.modmath`, whose kernel does
every conversion between masks, indices, bit arrays and coordinate rows and
every sumset, fold, sum-freeness test and stabilizer; VecSet is a typed view
over it.  Masks are portable integers; the hex dump used in golden files is
the little-endian byte string of that integer.

A decomposition is a pair (v, K) with K a hyperplane (spanned by n-1 basis
vectors) and v a transversal vector, so every x splits uniquely as
x = i*v + x' with i in Z_p and x' in K.  The induced parts
A_i = (A - i*v) cap K are reported in K-basis coordinates (dimension n-1).
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


def mat_inverse(m: list[list[int]], p: int) -> list[list[int]]:
    n = len(m)
    a = [[m[r][c] % p for c in range(n)] + [1 if r == c else 0 for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            raise VecSetError("matrix is singular mod p")
        a[col], a[piv] = a[piv], a[col]
        inv = mod_inverse(a[col][col], p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


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
# Decompositions (v, K) and part profiles


@dataclass(frozen=True)
class Decomposition:
    """A hyperplane K (given by a basis) plus a transversal vector v."""

    p: int
    n: int
    v: tuple[int, ...]
    kbasis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.kbasis) != self.n - 1:
            raise VecSetError("K must have codimension 1")
        rows = [list(self.v)] + [list(b) for b in self.kbasis]
        if self.n >= 1 and mat_det(rows, self.p) == 0:
            raise VecSetError("v together with the K basis must be a basis of the space")

    def basis_matrix(self) -> list[list[int]]:
        """Columns are v, k_1, ..., k_{n-1}."""
        cols = [self.v, *self.kbasis]
        return [[cols[c][r] for c in range(self.n)] for r in range(self.n)]


def decompositions_2d(p: int):
    """The p+1 decompositions of F_p^2, one per line through the origin.

    K runs over span{(0,1)} then span{(1,t)} for t = 0..p-1; v is the least
    standard basis vector outside K.
    """
    return (line_decomposition(p, line) for line in range(p + 1))


def line_decomposition(p: int, line: int) -> Decomposition:
    """Decomposition number `line` of F_p^2, in `decompositions_2d` order."""
    if line == 0:
        return Decomposition(p, 2, (1, 0), ((0, 1),))
    t = line - 1
    return Decomposition(p, 2, (0, 1) if t == 0 else (1, 0), ((1, t),))


@lru_cache(maxsize=16)
def _line_functionals(p: int) -> np.ndarray:
    """(p+1, 2) array: row l is row 0 of the inverse basis matrix of
    decomposition l, the functional x -> i with x = i*v + (element of K).

    In closed form: (1, 0) for K = span{(0,1)}, (0, 1) for span{(1,0)} and
    (1, -1/t) for span{(1,t)}, t != 0, since i*(1,0) + (x1/t)*(1,t) = x.
    """
    f = np.zeros((p + 1, 2), dtype=np.int64)
    f[0, 0] = f[1, 1] = 1
    f[2:, 0] = 1
    f[2:, 1] = [-mod_inverse(t, p) % p for t in range(1, p)]
    f.setflags(write=False)
    return f


def line_part_sizes(a: VecSet) -> np.ndarray:
    """(p+1, p) part-size matrix of A in F_p^2: entry (l, i) is |A_i| under
    decomposition l of `decompositions_2d`, i.e. len(decompose(a, dec).part(i)).

    One product of A's coordinate rows with every line functional and one
    offset bincount give all p+1 line profiles at once.
    """
    p = a.p
    if a.n != 2:
        raise VecSetError("line part sizes need n = 2")
    f = _line_functionals(p)
    coords = indices_to_rows(a.index_array(), p, 2) @ f.T
    coords %= p
    coords += np.arange(len(f), dtype=np.int64) * p
    counts = np.bincount(coords.ravel(), minlength=(p + 1) * p).reshape(p + 1, p)
    if (counts.sum(axis=1) != len(a)).any():
        raise GeneratorCheckError("line part sizes do not sum to |A|: implementation bug")
    return counts


@dataclass(frozen=True)
class DecompProfile:
    """Parts and support of A under (v, K)."""

    decomposition: Decomposition
    p: int
    n: int
    parts: tuple[VecSet, ...]           # indexed by i in Z_p, in K-basis coordinates
    support: ZpSet
    weight: int

    def part(self, i: int) -> VecSet:
        return self.parts[i % self.p]


def decompose(a: VecSet, d: Decomposition) -> DecompProfile:
    """Split A along (v, K): A_i = (A - i*v) cap K, reported in K coordinates."""
    p, n = a.p, a.n
    if (d.p, d.n) != (p, n):
        raise VecSetError("decomposition does not match the ambient space")
    binv = mat_inverse(d.basis_matrix(), p)
    # One bit array over (i, index in K): row i is the mask of the part A_i.
    bits = np.zeros((p, p ** (n - 1)), dtype=bool)
    if not a.is_empty():
        coords = indices_to_rows(a.index_array(), p, n) @ np.array(binv, dtype=np.int64).T % p
        bits[coords[:, 0], rows_to_indices(coords[:, 1:], p)] = True
    parts = tuple(VecSet._new(p, n - 1, m) for m in bits_to_mask(bits))
    if sum(len(x) for x in parts) != len(a):
        raise GeneratorCheckError(f"parts along {d.v} miss elements of A: implementation bug")
    support = ZpSet(p, [i for i, x in enumerate(parts) if x.mask])
    return DecompProfile(d, p, n, parts, support, len(support))


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
    p = _parse_kv(parts[0], "p")
    n = _parse_kv(parts[1], "n")
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
    parentheses, any separators between them), or "1,5" / "{1,5}" for
    one-coordinate vectors.  Blank text, "{}" and a bare "()" are no vectors."""
    text = text.strip()
    if text == "()":
        return ()
    body = text.strip("{}").strip()
    if not body:
        return ()
    if "(" in body:
        return tuple(tuple(int(c) for c in grp.split(",") if c.strip())
                     for grp in re.findall(r"\(([^()]*)\)", body))
    return tuple((int(tok),) for tok in body.split(","))


def _parse_kv(tok: str, key: str) -> int:
    k, _, v = tok.partition("=")
    if k.strip() != key:
        raise VecSetError(f"expected {key}=<int>, got {tok!r}")
    return int(v)


def format_vecset(a: VecSet) -> str:
    body = ",".join("(" + ",".join(map(str, v)) + ")" for v in a.vectors())
    return f"p={a.p};n={a.n};{{{body}}}"

"""Modular-arithmetic helpers and the bit-mask set kernel under ZpSet and VecSet.

The mask format lives here and nowhere else.  A subset of F_p^n is a Python
int of p^n bits, bit i set iff the cell with index i = sum x_j * p^j belongs
to the set (little-endian mixed radix; Z_p is the case n = 1).  The kernel
converts masks to and from cell indices, bit arrays and coordinate rows, and
computes sumsets, h-fold chains, (k,l)-sum-freeness, dilations, dilation
orbits, translation stabilizers, and the doubling sizes |A + A| and shortest
AP covers of a batch of Z_p residue rows (the one AP-cover scan: `ap_covers`
over the widest-gap step `ap_gaps`); each operation picks its route from its
input, after the sizes alone have had their say: a sumset with
|A| + |B| > p^n is the whole space (pigeonhole), and so is every jA, j >= 2,
of a fold chain or (k,l) check with 2|A| > p^n; a stabilizer of a set whose
size p does not divide is {0} (Lagrange).  `MaskSet` is the set algebra that
ZpSet and VecSet share.  Batches of p-bit masks of Z_p are arrays of words
(`word_array`), which the word helpers unpack, count and rotate whatever
their dtype; `child_folds` is the one fold step of both block trees, the Z_p
search and the covering lab.

Over Z_p (and the one-cell space F_p^0) a sumset ORs the plain shifts
large << x, one per element x of the smaller operand, into one int of 2p
bits and wraps it mod p once at the end: x + y <= 2p - 2, so bits p..2p-2
fold onto 0..p-2.  That route serves every Z_p sumset, h-fold chain and
(k,l) check, the Z_p factors T + U of the row-class route and the large rows
of `doubling_sizes`.

Over F_p^n, n >= 2, a sumset takes one array roll per element of its
smaller operand up to the roll route's size and the FFT route above it.
Fold chains and (k,l) checks in F_p^2 try the row-class route first, at
every size, and fall back by the same size to the rolls or the FFT when a
set has too many row classes.  A row is the p^(n-1)-bit block of one last
coordinate, and a set with few distinct rows is a disjoint union of
products T x F, F a row and T the last coordinates that carry it.  Since
(T x F) + (U x G) = (T + U) x (F + G), the row-class route sums such a
set's chain pair by pair, two Z_p sumsets each, in exact bit arithmetic,
while the pairs stay within a budget measured against the FFT route (and so
conservative against the slower rolls).  The paper's structures are unions
of bands I x F over one axis and have one to three row classes.

The FFT route uses real-input transforms (`rfftn`/`irfftn`) of the 0/1
indicators.  Every inverse transform goes through `_inverse_fft` and
`_exact_counts`, which rejects a count more than 1/4 off an integer.  A fold
chain transforms A once and each new support only when a later step needs
it, and a (k,l) check compares (k-j)A with lA - jA, j = (k-l)//2, so a
(3,1) check is one forward and two inverse transforms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Peeling one bit costs O(p^n/64), so above this many set bits mask -> indices
# unpacks the whole mask instead.  On a 2-vCPU Xeon with CPython 3.11 the two
# break even at 16-24 bits over 59 or 121 cells and at 24-32 bits over 59^2
# or 103^2 cells; 1160 bits over 59^2 cells take about 500 us peeled, 17 us
# unpacked.
_SPARSE_POPCOUNT = 24
# Over F_p^n with n >= 2, a sumset whose smaller operand has more elements
# than this is one FFT convolution instead of one array roll per element.
# Over Z_p one shift per element and a single wrap stay cheaper (at p = 1019,
# 128 shifts of a half-full operand take 39 us against 270 us for the FFT,
# best of 9), so n <= 1 never uses it.
# The break-even grows with p^n.  With real transforms (two forward, one
# inverse per sumset; half-full larger operand, same machine, NumPy 2.4) the
# FFT already wins at 16 shifts at p = 13, n = 2 (about 0.1 ms against
# 0.25 ms) and at p = 7, n = 3; the routes break even near 32 shifts at
# p = 59 (0.5 ms), near 100 at p = 103 (2 ms) and near 800 at p = 503
# (30 ms, where both axes fall back to Bluestein's algorithm).
# Sizes settle first: |A| + |B| > p^n gives the whole space, so at n = 2 a
# sumset takes the FFT only when 64 < min(|A|, |B|) and |A| + |B| <= p^2,
# which first happens at p = 13 (at p = 11, 65 + 65 > 121).  Fold chains and
# (k,l) checks settle 2|A| > p^n by size too, then try the row-class route
# in F_p^2 at every size, and only then cut over here (`_fft_route`).
_FFT_THRESHOLD = 64
# Up to this many (dilation, element) pairs, p-1 dilations are cheaper as
# Python int loops than as one `_dilation_images` call (break-even near
# p*|A| = 100 on uint64 words: 13 us against 14 us at p = 13, |A| = 6; 19 us
# against 15 us at p = 23, |A| = 5; 174 us against 29 us at p = 53, |A| = 18).
_DILATION_LOOP_PAIRS = 100
# The largest prime whose p-bit masks fit a uint64 word.  Batched Z_p mask
# work (the search tree, the covering tree, dilation images) runs on uint64
# arrays up to it and on object arrays of Python ints above.
WORD_P_LIMIT = 61
# Dilation orbits are computed over chunks of at most this many (mask, c,
# element) triples, which bounds the int64 image array at 2 MB.
_ORBIT_CELLS = 1 << 18
# Up to this set size `doubling_sizes` counts |A + A| from a sorted table of
# the s(s+1)/2 pair sums of each row; above it one `sumset_mask` per row is
# cheaper.  Per row against the one-wrap shift loop, mask build included
# (2-vCPU Xeon, CPython 3.11, NumPy 2.4, best of 5 over 300 rows): 0.8
# against 7 us at p = 101, s = 9; 16 against 23 us at s = 32; 24 against
# 27 us at s = 40; 34 against 30 us at s = 48; 59 against 53 us at p = 1009,
# s = 64.  The table's cost grows with s^2 and the shifts' with s*p/64, so
# the cut-over is conservative for larger p (at p = 10007, s = 96 the table
# is still 2x faster).
_PAIR_TABLE_SIZE = 32
# The pair-sum tables are built over chunks of rows of at most this many
# cells (512 KB of int64).
_PAIR_TABLE_CELLS = 1 << 16
# The AP-cover scan takes the differences d in blocks, one sorted (rows, D, s)
# image array of at most this many cells per block.  The covering lab's cover
# test drops the rows a block covers before the next, and the rows of a batch
# are covered evenly across d, so a larger block trades more wasted work for
# fewer calls.  The six exhaustive scans of a seed-1 benchmark covering pass
# take 199-204 ms with blocks of 2^12 to 2^16 cells alike (median of 5,
# 2-vCPU Xeon, CPython 3.11).
_COVER_CELLS = 1 << 14


class GeneratorCheckError(AssertionError):
    """A built-in self-check failed: an implementation bug.  Raised explicitly,
    never by `assert`, so it also fires under `python -O` (CLI exit code 2)."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for the desk-scale moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a mod p.  Raises ValueError when gcd(a, p) != 1."""
    a %= p
    if a == 0:
        raise ValueError(f"{a} is not invertible mod {p}")
    return pow(a, -1, p)


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in the closed range [lo, hi]."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def rotate_mask(mask: int, shift: int, p: int) -> int:
    """Cyclically shift a p-bit mask left by `shift` (adds `shift` to every residue)."""
    shift %= p
    if shift == 0:
        return mask
    full = (1 << p) - 1
    return ((mask << shift) | (mask >> (p - shift))) & full


class MaskSet:
    """An immutable subset of F_p^n backed by its p^n-bit `mask`: the algebra
    that ZpSet (n = 1) and VecSet share.  A subclass has `p`, `n` and `mask`,
    defines `_with_mask(mask)`, the set of that mask in the same space, and
    names its `_error` type and `_mismatch` message.  Every set operation
    builds its result through the operand's `_with_mask`, which checks the
    mask's range but not the modulus, already checked when the operand was
    built.  Sets of different classes are never equal."""

    __slots__ = ()
    _mismatch = "incompatible spaces"

    def _check_space(self, other) -> None:
        if self.p != other.p or self.n != other.n:
            raise self._error(self._mismatch)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.mask == other.mask
                and self.p == other.p and self.n == other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.p**self.n) - 1

    def complement(self):
        return self._with_mask(self.mask ^ ((1 << self.p**self.n) - 1))

    def union(self, other):
        self._check_space(other)
        return self._with_mask(self.mask | other.mask)

    def intersection(self, other):
        self._check_space(other)
        return self._with_mask(self.mask & other.mask)

    def issubset(self, other) -> bool:
        self._check_space(other)
        return self.mask & ~other.mask == 0


# ---------------------------------------------------------------------------
# Conversions


def mask_to_indices(mask: int) -> np.ndarray:
    """The set cell indices of a mask, ascending, as an int64 array."""
    if mask.bit_count() <= _SPARSE_POPCOUNT:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return np.array(out, dtype=np.int64)
    return np.flatnonzero(mask_to_bits(mask, mask.bit_length()))


def indices_to_mask(indices) -> int:
    """The mask with exactly the given (nonnegative) cell indices set."""
    if len(indices) <= _SPARSE_POPCOUNT:
        mask = 0
        for i in indices:
            mask |= 1 << int(i)
        return mask
    idx = np.asarray(indices, dtype=np.int64)
    bits = np.zeros(int(idx.max()) + 1, dtype=bool)
    bits[idx] = True
    return bits_to_mask(bits)


def mask_to_bits(mask: int, cells: int) -> np.ndarray:
    """Dense 0/1 uint8 array over `cells` cells, bit i at position i."""
    raw = mask.to_bytes((cells + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:cells]


def bits_to_mask(bits: np.ndarray):
    """Inverse of mask_to_bits (nonzero entries are members).  A 2-D array
    gives one mask per row, as a list."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.ndim == 1:
        return int.from_bytes(packed.tobytes(), "little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def indices_to_rows(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """Coordinate rows (len(idx), n) of cell indices: digit j of index i in base p."""
    return np.asarray(idx, dtype=np.int64)[:, None] // p ** np.arange(n, dtype=np.int64) % p


def rows_to_indices(rows: np.ndarray, p: int) -> np.ndarray:
    """Cell indices of coordinate rows with entries in [0, p)."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ p ** np.arange(rows.shape[1], dtype=np.int64)


def word_array(p: int, masks) -> np.ndarray:
    """p-bit masks as words: uint64 up to WORD_P_LIMIT, Python ints (an object
    array) above.  An array already in that dtype is not copied."""
    return np.asarray(masks, dtype=np.uint64 if p <= WORD_P_LIMIT else object)


def words_to_bits(words: np.ndarray, p: int) -> np.ndarray:
    """(N, p) 0/1 uint8 array whose row i holds the p low bits of words[i]."""
    if words.dtype == object:
        width = (p + 7) // 8
        raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in words), dtype=np.uint8)
    else:
        width, raw = 8, words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw.reshape(len(words), width), axis=1, bitorder="little")[:, :p]


def words_to_residues(words: np.ndarray, p: int) -> np.ndarray:
    """(N, s) ascending residues of N words with s set bits each."""
    bits = words_to_bits(words, p)
    counts = np.count_nonzero(bits, axis=1)
    size = int(counts[0]) if len(counts) else 0
    if (counts != size).any():
        raise ValueError(f"residue rows need p-bit masks of one size ({size} set bits)")
    return np.nonzero(bits)[1].reshape(len(words), size)


def words_popcount(words: np.ndarray) -> np.ndarray:
    """The number of set bits of each word."""
    if words.dtype == object:
        return np.fromiter(map(int.bit_count, words.tolist()), dtype=np.int64, count=len(words))
    return np.bitwise_count(words)


def rotate_words(words: np.ndarray, shifts: np.ndarray, p: int) -> np.ndarray:
    """`rotate_mask` over arrays: word i rotated left by shifts[i] in [0, p), of the words' dtype."""
    return ((words << shifts) | (words >> (p - shifts))) & ((1 << p) - 1)


def child_folds(folds, parent: np.ndarray, x: np.ndarray, p: int) -> list[np.ndarray]:
    """The fold step of a block tree over Z_p.  Given the h-fold masks
    folds[h-1] (h = 1, 2, ...) of a block of nodes, the fold words of the
    children A u {x[i]} of the nodes parent[i], x in [0, p) of the words'
    dtype: the 1-fold is folds[0][parent] | (1 << x), and each higher fold
    is folds[h-1][parent] | (the child's (h-1)-fold rotated by x)."""
    out = [folds[0][parent] | (1 << x)]
    for fold in folds[1:]:
        out.append(fold[parent] | rotate_words(out[-1], x, p))
    return out


def dilation_masks(p: int, mask: int) -> list[int]:
    """The masks of c*A for c = 1, ..., p-1 (entry c-1), A a subset of Z_p."""
    elems = mask_to_indices(mask)
    if p * len(elems) <= _DILATION_LOOP_PAIRS:
        elems = elems.tolist()
        images = []
        for c in range(1, p):
            image = 0
            for x in elems:
                image |= 1 << (c * x % p)
            images.append(image)
        return images
    return _dilation_images(p, elems[None, :])[0].tolist()


def _dilation_images(p: int, residues: np.ndarray) -> np.ndarray:
    """(N, p-1) array whose entry (i, c-1) is the mask of c*A_i, c = 1..p-1,
    for the rows A_i of an (N, s) array of residues, as words (`word_array`).

    Up to WORD_P_LIMIT the rows of `_dilation_table(p)` are gathered by
    residue and summed over each set: c is invertible, so the s bits of an
    image are distinct and their sum is their union.  Above it the products
    c*x mod p are set in a bit array and packed.
    """
    if p <= WORD_P_LIMIT:
        return _dilation_table(p)[residues].sum(axis=1, dtype=np.uint64)
    rows, size = residues.shape
    images = residues[:, None, :] * np.arange(1, p, dtype=np.int64)[:, None] % p  # (N, p-1, s)
    bits = np.zeros((rows * (p - 1), p), dtype=bool)
    bits[np.arange(len(bits))[:, None], images.reshape(len(bits), size)] = True
    return word_array(p, bits_to_mask(bits)).reshape(rows, p - 1)


@lru_cache(maxsize=None)
def _dilation_table(p: int) -> np.ndarray:
    """Read-only (p, p-1) uint64 table whose entry (x, c-1) is the bit
    1 << (c*x mod p), for p <= WORD_P_LIMIT (at most 29 KB at p = 61)."""
    products = np.arange(p, dtype=np.uint64)[:, None] * np.arange(1, p, dtype=np.uint64) % np.uint64(p)
    table = np.uint64(1) << products
    table.setflags(write=False)
    return table


def dilation_orbits(p: int, masks, ratio_counts: bool = False) -> tuple[list[int], ...]:
    """For each of a batch of equal-size subsets A of Z_p (p-bit masks, as a
    list or a word array), the least mask among its dilates cA, c = 1..p-1
    (the canonical form of its dilation orbit), and |Stab(A)| = #{c : cA = A}.
    With `ratio_counts`, a third list gives the number of dilates that
    contain 1 and whose least element above 1 is the least among those
    dilates: #{a in A : r*a in A}, r the least ratio y/a of two elements of
    A (every dilate containing 1 is a^(-1)A, and its elements above 1 are
    ratios).  The lists follow the order of `masks`.

    All images come from one residue array per chunk: the (N, s) residues of
    the sets, their products c*x mod p, the packed masks, then a row minimum
    and a count of the images equal to column c = 1 (A itself).  The ratio
    count keeps, for the images with bit 1 set, the lowest bit above bit 1,
    and counts the entries equal to the row's least.
    """
    residues = words_to_residues(word_array(p, masks), p)
    least, stabs, counts = [], [], []
    chunk = max(1, _ORBIT_CELLS // ((p - 1) * max(residues.shape[1], 1)))
    for lo in range(0, len(residues), chunk):
        images = _dilation_images(p, residues[lo:lo + chunk])
        least += images.min(axis=1).tolist()
        stabs += np.count_nonzero(images == images[:, :1], axis=1).tolist()
        if ratio_counts:
            above = (images >> 2) << 2
            key = np.where((images & 2) != 0, above & (~above + 1), 1 << p)
            counts += np.count_nonzero(key == key.min(axis=1)[:, None], axis=1).tolist()
    return (least, stabs, counts) if ratio_counts else (least, stabs)


@lru_cache(maxsize=None)
def _ap_inverses(p: int) -> np.ndarray:
    """Read-only d^(-1) mod p for d = 1, ..., p // 2 (d = 1 alone when p = 2).
    int32 while (p-1)^2 < 2^31, int64 above, so that no product of a residue
    and an inverse overflows."""
    dtype = np.int32 if (p - 1) ** 2 < 1 << 31 else np.int64
    inverses = np.array([pow(d, -1, p) for d in range(1, p // 2 + 1)], dtype=dtype)
    inverses.setflags(write=False)
    return inverses


def ap_gaps(p: int, residues: np.ndarray, lo: int):
    """The widest-gap step of the AP-cover scan.  For the rows A of an (N, s)
    array of residues mod p and the block of differences d = lo+1, lo+2, ...
    that keeps an (N, D, s) array within _COVER_CELLS cells (at least one
    difference, none past p // 2), the sorted images d^(-1)*A as an
    (N, D, s) array, and the same-shape array of the number of residues
    missing between each image entry and its cyclic predecessor.

    The shortest AP of difference d containing A is the complement of the
    widest such gap, starting at the entry after it; d and -d give the same
    length, so d <= (p-1)/2 will do.
    """
    block = _ap_inverses(p)[lo:][:max(1, _COVER_CELLS // residues.size)]
    img = np.sort(residues.astype(block.dtype, copy=False)[:, None, :] * block[:, None] % p, axis=2)
    return img, np.diff(img, axis=2, prepend=img[:, :, -1:] - p) - 1


def ap_covers(p: int, residues) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest AP cover of each row A of an (N, s) array of s >= 1
    distinct residues mod p, over the differences d = 1, ..., p // 2, as
    int64 arrays (d, start, length): A lies in {start + i*d : 0 <= i < length}.

    Ties go to the smallest d, then to the smallest start of the interval
    cover of d^(-1)*A.  The differences go through `ap_gaps` in blocks; the
    first widest gap of a block is the smallest d and start within it, and
    a later block replaces a row's cover only with a strictly wider gap.
    """
    residues = np.asarray(residues).astype(_ap_inverses(p).dtype, copy=False)
    rows, size = residues.shape
    every = np.arange(rows)
    best_gap = np.full(rows, -1)
    best_d = np.zeros(rows, dtype=np.int64)
    best_start = np.zeros(rows, dtype=np.int64)  # in the image d^(-1)*A
    lo = 0
    while lo < p // 2 and rows:
        img, gaps = ap_gaps(p, residues, lo)
        count = img.shape[1]
        img, gaps = img.reshape(rows, -1), gaps.reshape(rows, -1)
        at = gaps.argmax(axis=1)
        widest = gaps[every, at]
        wider = widest > best_gap
        best_gap = np.where(wider, widest, best_gap)
        best_d = np.where(wider, lo + 1 + at // size, best_d)
        best_start = np.where(wider, img[every, at], best_start)
        lo += count
    return best_d, best_d * best_start % p, p - best_gap


# ---------------------------------------------------------------------------
# Sumsets, folds, sum-freeness and stabilizers


def sumset_mask(p: int, n: int, a: int, b: int) -> int:
    """A + B over F_p^n (componentwise mod p).

    Sizes first: when |A| + |B| > p^n the sum is the whole space, with no
    shift or transform.  For every x, A and x - B together have more
    elements than the p^n cells, so they meet (the pigeonhole principle),
    and a common element a = x - b makes x = a + b a sum."""
    if not a or not b:
        return 0
    cells, size_a, size_b = p**n, a.bit_count(), b.bit_count()
    if size_a + size_b > cells:
        return _full_mask(cells)
    if size_a > size_b:
        a, b, size_a = b, a, size_b
    if n <= 1:
        return _sumset_rotations(cells, a, b)
    if size_a > _FFT_THRESHOLD:
        return _sumset_fft(p, n, a, b)
    return _sumset_rolls(p, n, a, b)


@lru_cache(maxsize=256)
def _full_mask(cells: int) -> int:
    """The mask of the whole space of `cells` cells.  Cached, so that the
    whole-space results the sizes settle share one int rather than each
    holding a copy of p^n bits."""
    return (1 << cells) - 1


def doubling_sizes(p: int, residues) -> np.ndarray:
    """|A + A| in Z_p for each row A of an (N, s) array of distinct residues,
    as int64.  Up to _PAIR_TABLE_SIZE the distinct values of the sorted pair
    sums x_i + x_j (i <= j) of each row are counted, a chunk of rows per
    array operation; larger (or empty) rows take `sumset_mask`, which
    settles a row of more than p/2 residues by its size alone."""
    residues = np.asarray(residues, dtype=np.int64)
    rows, size = residues.shape
    if not 0 < size <= _PAIR_TABLE_SIZE:
        masks = map(indices_to_mask, residues.tolist())
        return np.fromiter((sumset_mask(p, 1, m, m).bit_count() for m in masks),
                           dtype=np.int64, count=rows)
    i, j = _pair_indices(size)
    chunk = max(1, _PAIR_TABLE_CELLS // len(i))
    out = np.empty(rows, dtype=np.int64)
    for lo in range(0, rows, chunk):
        part = residues[lo:lo + chunk]
        sums = np.sort((part[:, i] + part[:, j]) % p, axis=1)
        out[lo:lo + chunk] = 1 + np.count_nonzero(sums[:, 1:] != sums[:, :-1], axis=1)
    return out


@lru_cache(maxsize=None)
def _pair_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `np.triu_indices(size)`: the index pairs i <= j of a row's
    pair sums, built once per size."""
    pairs = np.triu_indices(size)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _sumset_rotations(cells: int, small: int, large: int) -> int:
    # Z_p (or the one-cell space): `large` shifted left by each element of
    # `small` into one 2*cells-bit accumulator, then one wrap mod `cells`.
    acc = 0
    while small:
        low = small & -small
        acc |= large << (low.bit_length() - 1)
        small ^= low
    return (acc | acc >> cells) & ((1 << cells) - 1)


def _sumset_rolls(p: int, n: int, small: int, large: int) -> int:
    shape = (p,) * n
    arr = mask_to_bits(large, p**n).reshape(shape).astype(bool)
    out = np.zeros(shape, dtype=bool)
    # C-order reshape puts coordinate n-1-j on axis j, so shifts come reversed.
    axes = tuple(range(n))
    for shift in indices_to_rows(mask_to_indices(small), p, n)[:, ::-1].tolist():
        out |= np.roll(arr, shift, axis=axes)
    return bits_to_mask(out.reshape(-1))


def _sumset_fft(p: int, n: int, a: int, b: int) -> int:
    # Support of the cyclic convolution of the two indicators.
    bits = _indicator(p, n, a)
    fa = _forward_fft(bits)
    fb = fa if b == a else _forward_fft(_indicator(p, n, b))
    return bits_to_mask(_exact_counts(fa * fb, bits.shape).reshape(-1) > 0)


def _fft_route(n: int, a: int) -> bool:
    # Every step jA + A of a fold chain has A as its smaller operand, so over
    # F_p^n, n >= 2, the whole chain takes the FFT route exactly when A does.
    return n >= 2 and a.bit_count() > _FFT_THRESHOLD


def _row_pair_budget(p: int, n: int) -> int:
    """How many (term, class) pairs the row-class route may sum, each a Z_p
    sumset times a sumset over F_p^(n-1), before the FFT route is cheaper.

    Timed on a 2-vCPU Xeon (CPython 3.11, NumPy 2.4), best of 5, with (3,1)
    checks of sets whose c row classes are random half-full rows over a
    random partition of Z_p, c = 1..8.  At n = 2 the FFT route takes
    0.1-0.2 ms up to p = 41, 0.35-0.45 ms at p = 53 and 59, 1.5-2 ms at
    p = 103, 8.3 ms at p = 211 and 38-50 ms at p = 503, and the routes break
    even near 18 pairs at p = 13, 10-12 at p = 17-41, 14-15 at p = 53 and
    59, 40 at p = 103, 80 at p = 211 and 140 at p = 503.  max(9, p // 4)
    stays at or below each.  The generated structures, whose rows are
    intervals or a few points, break even later: their 9-pair (2,1) checks
    win at p = 17-53 (0.05 against 0.07 ms at p = 17, 0.18 against
    0.26 ms at p = 53), and their 24-pair (3,1) checks tie at p = 19-47 and
    win at p = 503 (3.2 against 50 ms).

    Fold chains and (k,l) checks try this route first at every size, so
    below _FFT_THRESHOLD the route it saves is the rolls, slower than the
    FFT it was measured against, and the budget is conservative there.
    One-class sets at p = 11 (best of 7, same machine): the (2,1) check of
    the type-1 set takes 0.023 ms by rows against 0.34 ms of rolls, and the
    (3,1) check of the (3,1) cuboid 0.025 ms against 1.26 ms.

    At n >= 3 the budget is 0 and the route is not taken: no benchmark
    workload builds sets there.  A pair is then a whole sumset over
    F_p^(n-1); one class beat the FFT route at p = 17, n = 3 (0.1-0.2 ms
    against 0.35 ms) but lost at p = 11 (1.2 ms against 0.15 ms).
    """
    return max(9, p // 4) if n == 2 else 0


def _row_classes(p: int, n: int, a: int) -> list | None:
    """A over F_p^n, n >= 2, as disjoint products T x F: one term (T, F) per
    distinct nonempty row (the p^(n-1)-bit block of one last coordinate),
    F the row and T the p-bit mask of the last coordinates that carry it.
    None when A has so many classes that A + A alone would pass the pair
    budget."""
    bound = math.isqrt(_row_pair_budget(p, n))
    if not bound:
        return None
    packed = np.packbits(mask_to_bits(a, p**n).reshape(p, -1), axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    empty = bytes(width)
    classes: dict[bytes, int] = {}
    for t in range(p):
        row = raw[t * width:(t + 1) * width]
        if row == empty:
            continue
        if row not in classes:
            if len(classes) == bound:
                return None
            classes[row] = 0
        classes[row] |= 1 << t
    return [(t, int.from_bytes(row, "little")) for row, t in classes.items()]


def _row_sum(p: int, n: int, xs: list, ys: list) -> list:
    # (T x F) + (U x G) = (T + U) x (F + G); terms with equal F + G merge.
    out: dict[int, int] = {}
    for t, f in xs:
        for u, g in ys:
            fg = sumset_mask(p, n - 1, f, g)
            out[fg] = out.get(fg, 0) | sumset_mask(p, 1, t, u)
    return [(t, f) for f, t in out.items()]


def _row_folds(p: int, n: int, a: int, h: int) -> list | None:
    """The terms of A, 2A, ..., hA, or None when the chain would pass the
    pair budget.  The terms of jA merge on F, so the chain of a structured
    set with c classes gains about c - 1 terms a step (3, 5 and 7 for a
    p = 503 type-5 set) and jA + A costs about (j(c-1) + 1) c pairs.  A
    chain whose estimate passes the budget is refused before any pair is
    summed; one that grows faster is left as soon as it passes."""
    classes = _row_classes(p, n, a)
    if classes is None:
        return None
    c, budget = len(classes), _row_pair_budget(p, n)
    if sum((j * (c - 1) + 1) * c for j in range(1, h)) > budget:
        return None
    chain, spent = [classes], 0
    for _ in range(h - 1):
        spent += len(chain[-1]) * c
        if spent > budget:
            return None
        chain.append(_row_sum(p, n, chain[-1], classes))
    return chain


def _terms_to_mask(p: int, n: int, terms: list) -> int:
    # The union of the products T x F, one row array over all of F_p^n.
    rows = np.zeros((p, p ** (n - 1)), dtype=np.uint8)
    for t, f in terms:
        rows[mask_to_indices(t)] |= mask_to_bits(f, rows.shape[1])
    return bits_to_mask(rows.reshape(-1))


def _indicator(p: int, n: int, mask: int) -> np.ndarray:
    # The 0/1 indicator shaped (p,)*n; the one-cell space F_p^0 is shape (1,).
    return mask_to_bits(mask, p**n).reshape((p,) * n if n else (1,))


def indicator_fft(p: int, n: int, mask: int) -> np.ndarray:
    """The n-dimensional DFT of the 0/1 indicator of a mask (unnormalized),
    the whole complex spectrum."""
    return np.fft.fftn(_indicator(p, n, mask).astype(np.float64))


def _forward_fft(bits: np.ndarray) -> np.ndarray:
    # Real-input DFT of a 0/1 array: half the spectrum along the last axis,
    # which determines the rest because the input is real.
    return np.fft.rfftn(bits.astype(np.float64), s=bits.shape, axes=tuple(range(bits.ndim)))


def _inverse_fft(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    return np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))


def _exact_counts(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    """The integer counts, over cells of the given shape, behind a product of
    half spectra.  A count more than 1/4 off its nearest integer means the
    floating-point transform is no longer exact at this size, and is a failed
    self-check."""
    counts = _inverse_fft(spectrum, shape)
    rounded = np.rint(counts)
    err = float(np.abs(np.subtract(counts, rounded, out=counts), out=counts).max())
    if err > 0.25:
        raise GeneratorCheckError(f"FFT count off an integer by {err:.3g} over {counts.size} cells")
    return rounded


def _fft_folds(p: int, n: int, a: int, h: int) -> tuple[list, list]:
    """The supports of A, 2A, ..., hA as 0/1 arrays, and the half spectra
    F(A), ..., F((h-1)A).  A is transformed once; each step jA -> (j+1)A is
    one inverse transform of F(jA) F(A), and a new support is transformed
    only when a later step needs it."""
    supports = [_indicator(p, n, a)]
    spectra = []
    for _ in range(h - 1):
        spectra.append(_forward_fft(supports[-1]))
        supports.append(_exact_counts(spectra[-1] * spectra[0], supports[0].shape) > 0)
    return supports, spectra


def _fills_space(p: int, n: int, a: int) -> bool:
    # |A| + |A| > p^n: 2A is the whole space (pigeonhole, as in `sumset_mask`),
    # and so is every jA + A after it.
    return 2 * a.bit_count() > p**n


def fold_masks(p: int, n: int, a: int, h: int) -> list[int]:
    """The h-fold chain [A, 2A, ..., hA], each step (j+1)A = jA + A.

    Sizes first: when 2|A| > p^n, 2A onward is the whole space.  Otherwise
    a set in F_p^2 tries the row-class route, and what it refuses takes one
    sumset per step up to _FFT_THRESHOLD elements and the FFT above."""
    if h > 1 and _fills_space(p, n, a):
        return [a] + [_full_mask(p**n)] * (h - 1)
    chain = _row_folds(p, n, a, h) if _row_pair_budget(p, n) else None
    if chain is not None:
        return [a] + [_terms_to_mask(p, n, terms) for terms in chain[1:]]
    if _fft_route(n, a):
        supports, _ = _fft_folds(p, n, a, h)
        return [a] + [bits_to_mask(s.reshape(-1)) for s in supports[1:]]
    return _step_folds(p, n, a, h)


def _step_folds(p: int, n: int, a: int, h: int) -> list[int]:
    # One sumset per step: the one-wrap shifts over Z_p, the rolls over F_p^n.
    folds = [a]
    for _ in range(h - 1):
        folds.append(sumset_mask(p, n, folds[-1], a))
    return folds


def is_kl_sumfree_mask(p: int, n: int, a: int, k: int, l: int) -> bool:
    """True iff kA and lA are disjoint (k > l >= 1).

    The routes run in the order of `fold_masks`.  Sizes first: when
    2|A| > p^n, kA is the whole space and meets lA.  On the row-class route
    kA and lA are unions of products, and they meet iff some product of
    each does, in its T and in its F.  On the FFT route the two sides are
    balanced: a_1 + ... + a_k equals b_1 + ... + b_l iff a_1 + ... + a_{k-j}
    equals b_1 + ... + b_l - a_{k-j+1} - ... - a_k, so with j = (k-l)//2,
    kA and lA are disjoint iff (k-j)A and lA - jA are.  lA - jA is read off
    F(lA) conj(F(jA)), and lA - 0A = lA; a (3,1) check is 2A against A - A,
    one forward and two inverse transforms.
    """
    if _fills_space(p, n, a):
        return False
    chain = _row_folds(p, n, a, k) if _row_pair_budget(p, n) else None
    if chain is not None:
        return not any(t & u and f & g for t, f in chain[k - 1] for u, g in chain[l - 1])
    if not _fft_route(n, a):
        folds = _step_folds(p, n, a, k)
        return folds[k - 1] & folds[l - 1] == 0
    j = (k - l) // 2
    supports, spectra = _fft_folds(p, n, a, k - j)
    if j:
        other = _exact_counts(spectra[l - 1] * spectra[j - 1].conj(), supports[0].shape) > 0
    else:
        other = supports[l - 1]
    return not (supports[-1] & other).any()


def stabilizer_mask(p: int, n: int, a: int) -> int:
    """{g : A + g = A}, read off the autocorrelation |A cap (A + g)| = |A|
    (one forward and one inverse transform).  The whole space stabilizes the
    empty set.

    Sizes first: when p does not divide |A| the stabilizer is {0}, with no
    transform.  Stab(A) is a subgroup of F_p^n, of order p^j by Lagrange's
    theorem, and A is a union of its cosets, so p^j divides |A|; p not
    dividing |A| leaves j = 0."""
    if not a:
        return _full_mask(p**n)
    if a.bit_count() % p:
        return 1
    bits = _indicator(p, n, a)
    fa = _forward_fft(bits)
    overlap = _exact_counts(fa * fa.conj(), bits.shape).reshape(-1)
    return bits_to_mask(overlap == a.bit_count())

"""Modular-arithmetic helpers and the bit-mask set kernel under ZpSet and VecSet.

The mask format lives here and nowhere else.  A subset of F_p^n is a Python
int of p^n bits, bit i set iff the cell with index i = sum x_j * p^j belongs
to the set (little-endian mixed radix; Z_p is the case n = 1).  The kernel
converts masks to and from cell indices, bit arrays and coordinate rows, and
computes sumsets, h-fold chains, (k,l)-sum-freeness, dilations and
translation stabilizers; each operation picks its route from its input.
"""

from __future__ import annotations

import numpy as np

# Peeling one bit costs O(p^n/64), so above this many set bits mask -> indices
# unpacks the whole mask instead.  On a 2-vCPU Xeon with CPython 3.11 the two
# break even at 16-24 bits over 59 or 121 cells and at 24-32 bits over 59^2
# or 103^2 cells; 1160 bits over 59^2 cells take about 500 us peeled, 17 us
# unpacked.
_SPARSE_POPCOUNT = 24
# Over F_p^n with n >= 2, a sumset whose smaller operand has more elements
# than this is one FFT convolution instead of one array roll per element.
# Over Z_p an int rotation per element stays cheaper (at p = 1019, 128
# rotations take 140 us against 360 us for the FFT), so n <= 1 never uses it.
_FFT_THRESHOLD = 64
# Up to this many (dilation, element) pairs, p-1 dilations are cheaper as
# Python int loops than as one numpy scatter (break-even near p*|A| = 200:
# 12 us against 20 us at p = 13, |A| = 6; 110 us against 34 us at p = 53,
# |A| = 18).
_DILATION_LOOP_PAIRS = 200


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
    factors = np.arange(1, p, dtype=np.int64)[:, None]
    images = np.zeros((p - 1, p), dtype=bool)    # row c-1 is the indicator of c*A
    images[factors - 1, factors * elems % p] = True
    return bits_to_mask(images)


# ---------------------------------------------------------------------------
# Sumsets, folds, sum-freeness and stabilizers


def sumset_mask(p: int, n: int, a: int, b: int) -> int:
    """A + B over F_p^n (componentwise mod p)."""
    if not a or not b:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    if n <= 1:
        return _sumset_rotations(p**n, a, b)
    if a.bit_count() > _FFT_THRESHOLD:
        return _sumset_fft(p, n, a, b)
    return _sumset_rolls(p, n, a, b)


def _sumset_rotations(cells: int, small: int, large: int) -> int:
    # Z_p (or the one-cell space): each element x of `small` rotates `large` by x.
    out = 0
    while small:
        low = small & -small
        out |= rotate_mask(large, low.bit_length() - 1, cells)
        small ^= low
    return out


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
    fa = indicator_fft(p, n, a)
    fb = fa if b == a else indicator_fft(p, n, b)
    return bits_to_mask(_exact_counts(fa * fb).reshape(-1) > 0)


def indicator_fft(p: int, n: int, mask: int) -> np.ndarray:
    """The n-dimensional DFT of the 0/1 indicator of a mask (unnormalized)."""
    shape = (p,) * n if n else (1,)
    return np.fft.fftn(mask_to_bits(mask, p**n).reshape(shape).astype(np.float64))


def _inverse_fft(spectrum: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(spectrum).real


def _exact_counts(spectrum: np.ndarray) -> np.ndarray:
    """The integer counts behind a product of indicator transforms.  A count
    more than 1/4 off its nearest integer means the floating-point transform
    is no longer exact at this size, and is a failed self-check."""
    counts = _inverse_fft(spectrum)
    rounded = np.rint(counts)
    err = float(np.abs(counts - rounded).max())
    if err > 0.25:
        raise GeneratorCheckError(f"FFT count off an integer by {err:.3g} over {spectrum.size} cells")
    return rounded


def fold_masks(p: int, n: int, a: int, h: int) -> list[int]:
    """The h-fold chain [A, 2A, ..., hA], each step (j+1)A = jA + A."""
    folds = [a]
    for _ in range(h - 1):
        folds.append(sumset_mask(p, n, folds[-1], a))
    return folds


def is_kl_sumfree_mask(p: int, n: int, a: int, k: int, l: int) -> bool:
    """True iff kA and lA are disjoint (k > l >= 1)."""
    folds = fold_masks(p, n, a, k)
    return folds[k - 1] & folds[l - 1] == 0


def stabilizer_mask(p: int, n: int, a: int) -> int:
    """{g : A + g = A}, read off the autocorrelation |A cap (A + g)| = |A|
    (one FFT).  The whole space stabilizes the empty set."""
    cells = p**n
    if not a:
        return (1 << cells) - 1
    fa = indicator_fft(p, n, a)
    overlap = _exact_counts(fa * fa.conj()).reshape(-1)
    return bits_to_mask(overlap == a.bit_count())

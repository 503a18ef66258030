"""Modular-arithmetic helpers and the bit-mask set kernel under ZpSet and VecSet.

The mask format lives here and nowhere else.  A subset of F_p^n is a Python
int of p^n bits, bit i set iff the cell with index i = sum x_j * p^j belongs
to the set (little-endian mixed radix; Z_p is the case n = 1).  The kernel
converts masks to and from cell indices, bit arrays and coordinate rows, and
computes sumsets, h-fold chains, (k,l)-sum-freeness, dilations and
translation stabilizers; each operation picks its route from its input.

Over F_p^n, n >= 2, large sets take the FFT route: real-input transforms
(`rfftn`/`irfftn`) of the 0/1 indicators.  Every inverse transform goes
through `_inverse_fft` and `_exact_counts`, which rejects a count more than
1/4 off an integer.  A fold chain transforms A once and each new support only
when a later step needs it, and a (k,l) check compares (k-j)A with lA - jA,
j = (k-l)//2, so a (3,1) check is one forward and two inverse transforms.
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
# The break-even grows with p^n.  With real transforms (two forward, one
# inverse per sumset; half-full larger operand, same machine, NumPy 2.4) the
# FFT already wins at 16 shifts at p = 13, n = 2 (about 0.1 ms against
# 0.25 ms) and at p = 7, n = 3; the routes break even near 32 shifts at
# p = 59 (0.5 ms), near 100 at p = 103 (2 ms) and near 800 at p = 503
# (30 ms, where both axes fall back to Bluestein's algorithm).
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
    bits = _indicator(p, n, a)
    fa = _forward_fft(bits)
    fb = fa if b == a else _forward_fft(_indicator(p, n, b))
    return bits_to_mask(_exact_counts(fa * fb, bits.shape).reshape(-1) > 0)


def _fft_route(n: int, a: int) -> bool:
    # Every step jA + A of a fold chain has A as its smaller operand, so over
    # F_p^n, n >= 2, the whole chain takes the FFT route exactly when A does.
    return n >= 2 and a.bit_count() > _FFT_THRESHOLD


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


def fold_masks(p: int, n: int, a: int, h: int) -> list[int]:
    """The h-fold chain [A, 2A, ..., hA], each step (j+1)A = jA + A."""
    if _fft_route(n, a):
        supports, _ = _fft_folds(p, n, a, h)
        return [a] + [bits_to_mask(s.reshape(-1)) for s in supports[1:]]
    folds = [a]
    for _ in range(h - 1):
        folds.append(sumset_mask(p, n, folds[-1], a))
    return folds


def is_kl_sumfree_mask(p: int, n: int, a: int, k: int, l: int) -> bool:
    """True iff kA and lA are disjoint (k > l >= 1).

    On the FFT route the two sides are balanced: a_1 + ... + a_k equals
    b_1 + ... + b_l iff a_1 + ... + a_{k-j} equals
    b_1 + ... + b_l - a_{k-j+1} - ... - a_k, so with j = (k-l)//2, kA and lA
    are disjoint iff (k-j)A and lA - jA are.  lA - jA is read off
    F(lA) conj(F(jA)), and lA - 0A = lA; a (3,1) check is 2A against A - A,
    one forward and two inverse transforms.
    """
    if not _fft_route(n, a):
        folds = fold_masks(p, n, a, k)
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
    empty set."""
    cells = p**n
    if not a:
        return (1 << cells) - 1
    bits = _indicator(p, n, a)
    fa = _forward_fft(bits)
    overlap = _exact_counts(fa * fa.conj(), bits.shape).reshape(-1)
    return bits_to_mask(overlap == a.bit_count())

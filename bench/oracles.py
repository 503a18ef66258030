"""Independent reference computations used to check benchmark outputs.

Everything here recomputes from the definitions, on Python sets of residues
or on numpy arrays of every pairwise sum, so a fast path in klsf that goes
wrong cannot agree with it by sharing code.  None of it runs inside a timed
region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def residues(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(elems) -> int:
    out = 0
    for e in elems:
        out |= 1 << e
    return out


def zp_sum(a, b, p: int) -> set[int]:
    return {(x + y) % p for x in a for y in b}


def digits(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    return np.stack([np.asarray(idx, dtype=np.int64) // p**i % p for i in range(n)], axis=-1)


def vec_sum_idx(a: np.ndarray, b: np.ndarray, p: int, n: int) -> np.ndarray:
    """Indices of A + B in F_p^n: every pair summed coordinatewise, then deduplicated."""
    s = (digits(a, p, n)[:, None, :] + digits(b, p, n)[None, :, :]) % p
    return np.unique(s.reshape(-1, n) @ (p ** np.arange(n)))


def vec_sumfree_idx(a: np.ndarray, k: int, l: int, p: int, n: int) -> bool:
    folds = [a]
    for _ in range(k - 1):
        folds.append(vec_sum_idx(folds[-1], a, p, n))
    return not np.intersect1d(folds[k - 1], folds[l - 1]).size


def stabilizer_idx(s: np.ndarray, p: int, n: int) -> np.ndarray:
    """{g : g + S = S}: each candidate g = x - s_0 is tried against all of S."""
    member = np.zeros(p**n, dtype=bool)
    member[s] = True
    d = digits(s, p, n)
    cands = (d - d[0]) % p
    shifted = (cands[:, None, :] + d[None, :, :]) % p
    keep = member[shifted.reshape(-1, n) @ (p ** np.arange(n))].reshape(len(s), len(s)).all(axis=1)
    return np.sort(cands[keep] @ (p ** np.arange(n)))


def hfold(a, h: int, add) -> set:
    out = set(a)
    for _ in range(h - 1):
        out = add(out, a)
    return out


def zp_sumfree(a, k: int, l: int, p: int) -> bool:
    add = lambda x, y: zp_sum(x, y, p)  # noqa: E731
    return not hfold(a, k, add) & hfold(a, l, add)


def vectors_of(mask: int, p: int, n: int) -> list[tuple[int, ...]]:
    out = []
    for idx in residues(mask):
        v = []
        for _ in range(n):
            v.append(idx % p)
            idx //= p
        out.append(tuple(v))
    return out


def index_of(v, p: int) -> int:
    idx = 0
    for c in reversed(v):
        idx = idx * p + c
    return idx


def canonical_mask(elems, p: int) -> int:
    """Least mask over all dilations c*A, c in 1..p-1."""
    return min(mask_of({c * x % p for x in elems}) for c in range(1, p))


def extremal_intervals(k: int, l: int, p: int) -> list[set[int]]:
    """[a_j, a_j + m] with a_j = -(km + 1 + j)/(k - l), one per extremal orbit."""
    m = (p - 2) // (k + l)
    lam = p - 2 - m * (k + l)
    inv = pow(k - l, -1, p)
    return [{(-(k * m + 1 + j) * inv + i) % p for i in range(m + 1)} for j in range((lam + 2) // 2)]


def embeds_in_interval(elems, intervals, p: int) -> bool:
    return any({c * x % p for x in elems} <= iv for c in range(1, p) for iv in intervals)


def min_ap_cover_len(elems, p: int) -> int:
    """Shortest arithmetic progression containing the set, over all differences."""
    if len(elems) <= 1:
        return len(elems)
    best = p
    for d in range(1, (p - 1) // 2 + 1):
        inv = pow(d, -1, p)
        img = sorted(x * inv % p for x in elems)
        gap = max([img[0] + p - img[-1] - 1] + [b - a - 1 for a, b in zip(img, img[1:])])
        best = min(best, p - gap)
    return best


def brute_force_enumeration(k: int, l: int, p: int):
    """Maximum size, extremal orbits and second-level orbits by trying every subset.

    Returns (max_size, {canonical masks of maximum sets},
    {canonical masks of size-m sum-free sets embedding in no extremal interval}).
    """
    m = (p - 2) // (k + l)
    nonzero = range(1, p)
    best, best_sets = 0, []
    size = 1
    while True:
        found = [c for c in combinations(nonzero, size) if zp_sumfree(c, k, l, p)]
        if not found:
            break
        best, best_sets = size, found
        size += 1
    intervals = extremal_intervals(k, l, p)
    second = {canonical_mask(c, p) for c in combinations(nonzero, m)
              if zp_sumfree(c, k, l, p) and not embeds_in_interval(c, intervals, p)}
    return best, {canonical_mask(c, p) for c in best_sets}, second


def smallest_hypothesis_tau(doubling: int, size: int, grid) -> Fraction | None:
    return next((t for t in grid if doubling <= (2 + t) * size - 3), None)


def brute_force_violations(p: int, c: Fraction, grid) -> dict[int, Fraction]:
    """Canonical mask -> tau_star of every set with |A| <= c*p that meets some
    grid hypothesis and is covered by no AP of length |2A| - |A| + 1."""
    out: dict[int, Fraction] = {}
    for size in range(1, int(c * p) + 1):
        for combo in combinations(range(p), size):
            doubling = len(zp_sum(combo, combo, p))
            tau = smallest_hypothesis_tau(doubling, size, grid)
            if tau is None or min_ap_cover_len(combo, p) <= doubling - size + 1:
                continue
            key = canonical_mask(combo, p)
            out[key] = min(tau, out.get(key, tau))
    return out


def dft_direct(vectors, p: int, n: int) -> np.ndarray:
    """Fourier coefficients (1/p^n) sum_x exp(-2 pi i <t,x>/p), t in index order."""
    cells = p**n
    ts = np.array([[idx // p**i % p for i in range(n)] for idx in range(cells)], dtype=np.int64)
    xs = np.array(vectors, dtype=np.int64).reshape(-1, n)
    phase = (ts @ xs.T) % p
    return np.exp(-2j * np.pi * phase / p).sum(axis=1) / cells


def grid_sumfree_3_1(mask: int, p: int) -> bool:
    """3A and A disjoint for a subset of F_p^2 given as a mask, via two exact
    FFT convolutions (every count stays below |A|, far inside double range)."""
    cells = p * p
    raw = np.frombuffer(mask.to_bytes((cells + 7) // 8, "little"), dtype=np.uint8)
    ind = np.unpackbits(raw, bitorder="little")[:cells].reshape(p, p).astype(np.float64)
    fa = np.fft.fft2(ind)
    two = (np.fft.ifft2(fa * fa).real > 0.5).astype(np.float64)
    three = np.fft.ifft2(np.fft.fft2(two) * fa).real > 0.5
    return not (three & (ind > 0)).any()

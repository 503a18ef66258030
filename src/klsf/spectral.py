"""Discrete Fourier analysis of indicator functions over F_p^n.

Conventions (inner product normalized by |G|):
    coeff(t) = (1/p^n) * sum_{x in A} exp(-2*pi*i*<t, x>/p)
so coeff(0) equals the density alpha = |A|/p^n, Plancherel reads
sum_t |coeff(t)|^2 = alpha, and the transform of an h-fold convolution is the
pointwise h-th power.  Characters are indexed exactly like vectors (t at the
little-endian mixed-radix index), which makes the flat coefficient table line
up with VecSet masks.

For a (k,l)-sum-free set the inner product of the k-fold and l-fold
convolutions of the indicator vanishes, which yields both the exact identity
    sum_t coeff(t)^(k-l) * |coeff(t)|^(2l) = 0
and the lower bound  max_{t != 0} |coeff(t)| >= (alpha^(k+l-1)/(1-alpha))^(1/(k+l-2)).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .modmath import GeneratorCheckError, indicator_fft, indices_to_rows, rows_to_indices
from .vecset import VecSet, VecSetError, vec_is_kl_sumfree

SIZE_LIMIT = 1 << 20
COEFF_ZERO_TOL = 1e-12
PLANCHEREL_TOL = 1e-10
BOUND_TOL = 1e-9
VANISHING_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    p: int
    n: int
    values: np.ndarray = field(repr=False)  # flat, indexed by character index
    alpha: float

    def coeff(self, t) -> complex:
        return complex(self.values[int(rows_to_indices([[int(c) % self.p for c in t]], self.p)[0])])

    def max_nonzero_modulus(self) -> float:
        if len(self.values) == 1:
            return 0.0
        return float(np.abs(self.values[1:]).max())


def _check_size(a: VecSet) -> int:
    """The number of cells p^n of A's space, after refusing spaces above SIZE_LIMIT."""
    cells = a.p**a.n
    if cells > SIZE_LIMIT:
        raise VecSetError(f"space of size {cells} exceeds the spectrum limit {SIZE_LIMIT}")
    return cells


def spectrum(a: VecSet) -> Spectrum:
    """Full coefficient table via the FFT; refuses spaces above SIZE_LIMIT."""
    cells = _check_size(a)
    values = (indicator_fft(a.p, a.n, a.mask) / cells).reshape(-1)
    alpha = len(a) / cells
    if not abs(values[0] - alpha) <= COEFF_ZERO_TOL:
        raise GeneratorCheckError("zero coefficient drifted from the density")
    if not abs(np.sum(np.abs(values) ** 2) - alpha) <= PLANCHEREL_TOL:
        raise GeneratorCheckError("Plancherel identity drifted")
    return Spectrum(a.p, a.n, values, alpha)


def spectrum_direct(a: VecSet) -> np.ndarray:
    """O(p^n * |A|) evaluation from the definition; the FFT path's test oracle."""
    p, n = a.p, a.n
    cells = p**n
    out = np.zeros(cells, dtype=np.complex128)
    elems = [list(v) for v in a.vectors()]
    for idx, t in enumerate(indices_to_rows(np.arange(cells), p, n).tolist()):
        acc = 0j
        for x in elems:
            acc += cmath.exp(-2j * cmath.pi * (sum(ti * xi for ti, xi in zip(t, x)) % p) / p)
        out[idx] = acc / cells
    return out


def sumfree_spectral_bound(alpha: float, k: int, l: int) -> float:
    """(alpha^(k+l-1) / (1-alpha))^(1/(k+l-2)), increasing in alpha."""
    if not 0 < alpha < 1:
        raise VecSetError("density must lie strictly between 0 and 1")
    if k + l < 3:
        raise VecSetError("bound needs k + l >= 3")
    return (alpha ** (k + l - 1) / (1 - alpha)) ** (1.0 / (k + l - 2))


def kl_vanishing_sum(spec: Spectrum, k: int, l: int) -> complex:
    """sum_t coeff(t)^(k-l) * |coeff(t)|^(2l); exactly 0 for (k,l)-sum-free sets."""
    v = spec.values
    return complex(np.sum(v ** (k - l) * np.abs(v) ** (2 * l)))


@dataclass(frozen=True)
class SpectralCheck:
    applicable: bool
    alpha: float
    max_nonzero: float
    bound: float
    passed: bool
    vanishing: complex
    vanishing_ok: bool

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "alpha": self.alpha,
            "max_nonzero": self.max_nonzero,
            "bound": self.bound,
            "passed": self.passed,
            "vanishing_abs": abs(self.vanishing),
            "vanishing_ok": self.vanishing_ok,
        }


def verify_spectral_lemma(a: VecSet, k: int, l: int) -> SpectralCheck:
    """Check the spectral lower bound and the vanishing identity on A.

    Not applicable (all checks skipped) when A is not (k,l)-sum-free.  The
    space is checked against SIZE_LIMIT first, so the answer for a space
    above it never depends on A.
    """
    _check_size(a)
    if a.is_empty() or not vec_is_kl_sumfree(a, k, l):
        return SpectralCheck(False, 0.0, 0.0, 0.0, False, 0j, False)
    spec = spectrum(a)
    bound = sumfree_spectral_bound(spec.alpha, k, l)
    max_nz = spec.max_nonzero_modulus()
    vanish = kl_vanishing_sum(spec, k, l)
    return SpectralCheck(
        True, spec.alpha, max_nz, bound,
        max_nz >= bound - BOUND_TOL,
        vanish, abs(vanish) <= VANISHING_TOL,
    )

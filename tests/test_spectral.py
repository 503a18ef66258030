"""Fourier checks: transform identities, the sum-free lower bound, kernels."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klsf import spectral
from klsf.zpset import ZpSet
from klsf.vecset import VecSet, VecSetError, line_bases, line_part_sizes
from klsf.spectral import (
    kl_vanishing_sum,
    spectrum,
    spectrum_direct,
    sumfree_spectral_bound,
    verify_spectral_lemma,
)


def test_spectrum_trivial_cases():
    full = spectrum(VecSet.full(5, 2))
    assert abs(full.coeff((0, 0)) - 1) < 1e-12
    assert np.abs(full.values[1:]).max() < 1e-12
    point = spectrum(VecSet(5, 2, [(0, 0)]))
    assert np.allclose(point.values, 1 / 25)


def test_spectrum_of_subspace_coset():
    h = VecSet(5, 2, [(0, i) for i in range(5)])
    spec = spectrum(h.translate((2, 3)))
    mods = np.abs(spec.values)
    nz = mods > 1e-12
    # support = annihilator of H = {t : t_1 = 0}, each value of modulus |H|/p^n
    assert set(np.nonzero(nz)[0]) == set(range(5))
    assert np.allclose(mods[nz], 5 / 25)


def test_fft_agrees_with_direct_evaluation():
    rng = random.Random(91)
    for _ in range(15):
        p = rng.choice([5, 7])
        n = rng.choice([1, 2])
        cells = p**n
        a = VecSet.from_indices(p, n, rng.sample(range(cells), rng.randrange(1, cells)))
        assert np.abs(spectrum(a).values - spectrum_direct(a)).max() < 1e-10


def test_plancherel_random():
    rng = random.Random(93)
    for _ in range(40):
        p = rng.choice([7, 11, 13, 101])
        a = VecSet.from_indices(p, 1, rng.sample(range(p), rng.randrange(1, p)))
        spec = spectrum(a)  # asserts Plancherel to 1e-10 internally
        assert abs(np.sum(np.abs(spec.values) ** 2) - spec.alpha) < 1e-10


def test_convolution_identity_random():
    rng = random.Random(97)
    for _ in range(25):
        p = rng.choice([5, 7, 11])
        n = rng.choice([1, 2])
        cells = p**n
        a = VecSet.from_indices(p, n, rng.sample(range(cells), rng.randrange(1, cells)))
        h = rng.choice([2, 3])
        arr = a.bit_array().reshape((p,) * n).astype(np.float64)
        conv = arr
        fa = np.fft.fftn(arr)
        for _ in range(h - 1):
            conv = np.fft.ifftn(np.fft.fftn(conv) * fa).real / cells
        conv_spec = (np.fft.fftn(conv) / cells).reshape(-1)
        assert np.abs(conv_spec - spectrum(a).values**h).max() < 1e-9


def test_bound_formula():
    assert abs(sumfree_spectral_bound(0.5, 2, 1) - 0.5) < 1e-15
    for k, l in ((2, 1), (3, 1), (3, 2), (4, 1)):
        alpha = 1 / (k + l + 1)
        want = (1 / (k + l + 1)) * (1 / (k + l)) ** (1 / (k + l - 2))
        assert abs(sumfree_spectral_bound(alpha, k, l) - want) < 1e-14
    # monotone increasing in alpha
    vals = [sumfree_spectral_bound(a, 3, 1) for a in (0.05, 0.1, 0.2, 0.3)]
    assert vals == sorted(vals)
    assert sumfree_spectral_bound(1e-9, 2, 1) < 1e-8  # bound -> 0 with alpha
    with pytest.raises(VecSetError):
        sumfree_spectral_bound(1.5, 2, 1)


def test_verify_lemma_on_extremal_sets():
    for k, l, p, start, length in ((2, 1, 11, 4, 4), (3, 1, 23, 15, 6), (3, 2, 17, 7, 4)):
        chk = verify_spectral_lemma(VecSet.from_zpset(ZpSet.interval(p, start, length)), k, l)
        assert chk.applicable and chk.passed and chk.vanishing_ok


def test_verify_lemma_singleton_and_inapplicable():
    chk = verify_spectral_lemma(VecSet.from_zpset(ZpSet(13, [1])), 3, 1)
    assert chk.applicable and chk.passed
    assert abs(chk.max_nonzero - 1 / 13) < 1e-12  # singleton coefficients all 1/p
    bad = verify_spectral_lemma(VecSet.from_zpset(ZpSet(11, [1, 2, 4])), 2, 1)
    assert not bad.applicable


def test_vanishing_identity_on_sumfree_sets():
    rng = random.Random(101)
    from klsf.zpset import is_kl_sumfree

    found = 0
    while found < 15:
        p = rng.choice([11, 13, 17])
        a = ZpSet(p, rng.sample(range(1, p), rng.randrange(1, 5)))
        if not is_kl_sumfree(a, 3, 1):
            continue
        found += 1
        spec = spectrum(VecSet.from_zpset(a))
        assert abs(kl_vanishing_sum(spec, 3, 1)) < 1e-9


def kernel_line(p, t):
    """The line of F_p^2 that is the kernel of x -> <t, x>: the one whose
    functional x -> i (row 0 of its `line_bases` entry) is proportional to t."""
    f = line_bases(p)[:, 0]
    return next(line for line in range(p + 1)
                if (f[line, 0] * t[1] - f[line, 1] * t[0]) % p == 0)


def test_balance_link_via_kernel_decomposition():
    # |coeff(t)| <= sum_i ||A_i| - u| / p^2 along the kernel of t, for every u
    a = VecSet(11, 2, [(x, y) for x in (4, 5, 6, 7) for y in range(11)])
    spec = spectrum(a)
    counts = line_part_sizes(a)
    for t in ((1, 0), (2, 3), (0, 1), (5, 5)):
        sizes = counts[kernel_line(11, t)]
        for u in (0, 5, 11):
            assert abs(spec.coeff(t)) <= np.abs(sizes - u).sum() / 11**2 + 1e-9


def test_size_limit(monkeypatch):
    monkeypatch.setattr(spectral, "SIZE_LIMIT", 1)
    with pytest.raises(VecSetError, match="exceeds the spectrum limit"):
        spectrum(VecSet(2, 1, [(0,)]))


def test_lemma_checks_size_limit_before_sum_freeness(monkeypatch):
    # F_5^2 has 25 cells: a set that is not (2,1)-sum-free is refused like one that is
    monkeypatch.setattr(spectral, "SIZE_LIMIT", 10)
    for a in (VecSet(5, 2, [(1, 0), (2, 0)]), VecSet(5, 2, [(2, 0), (3, 0)])):
        with pytest.raises(VecSetError, match="exceeds the spectrum limit"):
            verify_spectral_lemma(a, 2, 1)


def test_self_checks_survive_optimize():
    # The density and Plancherel checks raise GeneratorCheckError, so they
    # also run under python -O, and the CLI maps them to exit code 2.
    script = """
import sys
from klsf import cli, spectral
from klsf.modmath import GeneratorCheckError
from klsf.vecset import VecSet

if not sys.flags.optimize:
    sys.exit("not running under -O")
spectral.COEFF_ZERO_TOL = -1
try:
    spectral.spectrum(VecSet(5, 2, [(0, 0)]))
    print("no error")
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["spectral", "--k", "2", "--l", "1", "--set", "p=11;[4,7]"]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "raised: zero coefficient drifted from the density"
    assert lines[-1] == "exit 2"
    assert "check failed" in run.stderr

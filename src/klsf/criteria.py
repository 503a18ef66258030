"""Acceptance criteria A1-A11: one runnable check per headline claim.

Each runner returns a CriterionResult with a hard pass/fail verdict plus any
findings (data points that are interesting but not failures, e.g. orbits the
classifier cannot name at small m, or covering violations in the open
regime).  The pytest acceptance module asserts `passed`; the CLI `reproduce`
verb prints the same records and maps findings to exit code 3.

Deterministic seeds are fixed here so reruns are byte-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .modmath import GeneratorCheckError, primes_in
from .zpset import ZpSet, find_kl_sums, is_ap, sumset
from .vecset import Params, VecSet, kneser_gap
from .constructions import (
    ParameterError,
    TypeSpec,
    certify_type_distinctness,
    extremal_interval,
    gen_cuboid,
    gen_type,
    reference_specs,
    type1_a_values,
    type3_support_profile,
    type_support,
)
from .search import canonical_form, enumerate_max, enumerate_second_level
from .covering import default_grid, tau_scan
from .spectral import spectrum, verify_spectral_lemma

SEED_RANDOM_PROPS = 20250808
SEED_SAMPLED_SCAN = 20250808

# The parameter grids of the criteria, each named once; A8 reads them all.
A1_GRID = tuple(Params(2, 1, p) for p in primes_in(5, 41) if p % 3 == 2)
A2_GRID = tuple(params for k, l in ((3, 1), (3, 2), (4, 1)) for p in primes_in(5, 43)
                for params in [Params(k, l, p)] if params.m >= 1 and params.lambda_in_range())
A3_GRID = tuple(Params(k, l, p, n) for p in primes_in(5, 23)
                for k, l in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (6, 1))
                for n in (1, 2))
A3_SPOT = TypeSpec("type5", Params(3, 1, 1019, 2), s=1, pset=((1,), (5,)))
A5_GRID = tuple(Params(k, l, p) for k, l, p in ((2, 1, 11), (2, 1, 17), (2, 1, 23), (3, 1, 23)))


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    findings: list[str] = field(default_factory=list)
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f" ({len(self.findings)} finding(s))" if self.findings else ""
        return f"{self.cid} {verdict}{extra} [{self.elapsed:.1f}s]"


def _timed(fn):
    def wrapper() -> CriterionResult:
        t0 = time.perf_counter()
        res = fn()
        res.elapsed = time.perf_counter() - t0
        return res

    return wrapper


# ---------------------------------------------------------------------------
# A1 / A2: maximum size and extremal orbits by exhaustive search


def _check_max_case(params: Params, res: CriterionResult) -> None:
    run = enumerate_max(params)
    want_size = params.m + 1
    want_orbits = {canonical_form(extremal_interval(params, j)).mask
                   for j in range(params.extremal_orbit_count())}
    got_orbits = {o.mask for o in run.extremal_orbits}
    ok = run.max_size == want_size and got_orbits == want_orbits
    res.details.append(
        f"(k,l,p)=({params.k},{params.l},{params.p}): max {run.max_size} "
        f"(want {want_size}), orbits {len(got_orbits)} (want {len(want_orbits)}), "
        f"nodes {run.node_count}"
    )
    if not ok:
        res.passed = False
        surplus = got_orbits - want_orbits
        if surplus:
            res.findings.append(
                f"unexpected extremal orbits at ({params.k},{params.l},{params.p}): "
                f"{[sorted(ZpSet.from_mask(params.p, m).elements()) for m in sorted(surplus)]}"
            )


@_timed
def run_a1() -> CriterionResult:
    res = CriterionResult("A1", True)
    for params in A1_GRID:
        _check_max_case(params, res)
    return res


@_timed
def run_a2() -> CriterionResult:
    res = CriterionResult("A2", True)
    for params in A2_GRID:
        _check_max_case(params, res)
    return res


# ---------------------------------------------------------------------------
# A3: generator soundness over the test grid


def a3_grid() -> list[tuple[str, object]]:
    """Every (kind, spec) pair of the standard generator grid A3_GRID
    (n <= 2, p <= 23): the valid reference variants of every structure kind."""
    return [(kind, spec) for params in A3_GRID for kind, _, spec in reference_specs(params)]


@_timed
def run_a3() -> CriterionResult:
    res = CriterionResult("A3", True)
    count = 0
    for kind, spec in a3_grid():
        # gen_* verify sum-freeness and the exact size and raise on failure.
        try:
            gen_cuboid(spec) if kind == "cuboid" else gen_type(spec)
            count += 1
        except AssertionError as exc:
            res.passed = False
            res.findings.append(str(exc))
    res.details.append(f"{count} grid emissions verified (n <= 2, p <= 23)")
    try:
        out = gen_type(A3_SPOT)
        res.details.append(f"type-5 spot check at p=1019: size {len(out)} verified")
    except AssertionError as exc:
        res.passed = False
        res.findings.append(f"spot check failed: {exc}")
    return res


# ---------------------------------------------------------------------------
# A4: pairwise non-isomorphism certificates

A4_GRID = ((3, 1, 23), (4, 1, 43), (3, 2, 43), (5, 1, 41), (4, 3, 47), (5, 2, 47), (6, 1, 47))


@_timed
def run_a4() -> CriterionResult:
    res = CriterionResult("A4", True)
    for k, l, p in A4_GRID:
        params = Params(k, l, p, 2)
        if params.m < 5:
            raise GeneratorCheckError(f"A4 grid point (k,l,p)=({k},{l},{p}) has m={params.m} < 5")
        certs = certify_type_distinctness(params)
        res.details.append(
            f"(k,l,p)=({k},{l},{p}) m={params.m}: "
            + "; ".join(f"{c.kind_a}|{c.kind_b}:{c.method}" for c in certs)
        )
        try:
            prof = type3_support_profile(params)
        except ParameterError:
            continue
        e2 = prof[2]
        min_rest = min(prof[d] for d in prof.counts if d != 2)
        if not (e2 == 4 and min_rest >= 6):
            res.passed = False
            res.findings.append(f"type-3 support profile broke at ({k},{l},{p}): e2={e2}")
        else:
            res.details.append(f"  type-3 support: e_2 = 4, min other e_d = {min_rest} >= 6")
    return res


# ---------------------------------------------------------------------------
# A5: second-level enumeration and classification


@_timed
def run_a5() -> CriterionResult:
    res = CriterionResult("A5", True)
    for params in A5_GRID:
        k, l, p, m = params.k, params.l, params.p, params.m
        run = enumerate_second_level(params)
        labels = {s.mask: rep.label for s, rep in run.second_level_orbits}
        notes = {s.mask: rep.notes for s, rep in run.second_level_orbits}
        if (k, l) == (2, 1):
            want = canonical_form(type_support(TypeSpec("rz", params, s=0, pset=())))
            ok = want.mask in labels and labels[want.mask] in ("type1", "rz")
            tag = "rz-interval"
            if ok and labels[want.mask] == "type1":
                ok = any("rz" in note for note in notes[want.mask])
        else:
            spec = TypeSpec("type1", params, a=type1_a_values(params)[0])
            want = canonical_form(type_support(spec))
            ok = want.mask in labels and labels[want.mask] == "type1"
            tag = "type-1 interval"
        res.details.append(
            f"({k},{l},{p}): {len(labels)} nontrivial orbit(s) of size {m}; "
            f"{tag} present and labeled {labels.get(want.mask, 'MISSING')}"
        )
        if not ok:
            res.passed = False
        res.findings.extend(run.findings)
        for mask, label in labels.items():
            if mask != want.mask:
                res.findings.append(
                    f"additional orbit at ({k},{l},{p}): "
                    f"{sorted(ZpSet.from_mask(p, mask).elements())} labeled {label}"
                )
    return res


# ---------------------------------------------------------------------------
# A6: arithmetic-progression lemmas, exhaustively for p <= 31


@_timed
def run_a6() -> CriterionResult:
    res = CriterionResult("A6", True)
    ap_checked = holes_checked = 0
    for p in primes_in(5, 31):
        half = (p - 1) // 2
        for d in range(1, half + 1):
            for start in range(p):
                # every AP arises from some (start, d, length) with d <= half,
                # so this enumeration covers the lemma's whole quantifier
                for length in range(2, p - 1):
                    a = ZpSet(p, [(start + i * d) % p for i in range(length)])
                    if is_ap(a) != [d]:
                        res.passed = False
                        res.findings.append(f"difference not unique: p={p} d={d} len={length}")
                    ap_checked += 1
        for start in range(p):
            for length in range(4, p - 2):
                interval = [(start + i) % p for i in range(length)]
                for x in interval[1:-1]:
                    holed = ZpSet(p, [e for e in interval if e != x])
                    if is_ap(holed):
                        res.passed = False
                        res.findings.append(f"one-holed interval is an AP: p={p} {holed}")
                    holes_checked += 1
    res.details.append(f"{ap_checked} APs and {holes_checked} punctured intervals checked")
    return res


# ---------------------------------------------------------------------------
# A7: Cauchy-Davenport / Kneser / Vosper on random instances


@_timed
def run_a7() -> CriterionResult:
    res = CriterionResult("A7", True)
    rng = random.Random(SEED_RANDOM_PROPS)
    trials_per_p = 10_000
    vosper_hits = 0
    for p in primes_in(7, 31):
        for _ in range(trials_per_p):
            a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
            b = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
            s = sumset(a, b)
            if len(s) < min(p, len(a) + len(b) - 1):
                res.passed = False
                res.findings.append(f"Cauchy-Davenport broke: p={p} A={a} B={b}")
            if len(a) >= 2 and len(b) >= 2 and len(s) <= p - 2 and len(s) == len(a) + len(b) - 1:
                vosper_hits += 1
                if not set(is_ap(a)) & set(is_ap(b)):
                    res.passed = False
                    res.findings.append(f"Vosper equality without shared difference: p={p} A={a} B={b}")
        for _ in range(100):
            sets = [VecSet.from_zpset(ZpSet(p, rng.sample(range(p), rng.randrange(1, p))))
                    for _ in range(rng.choice((2, 3)))]
            kneser_gap(sets)  # raises GeneratorCheckError if the bound fails
    for p in (5, 7, 11, 13):
        for _ in range(50):
            cells = p * p
            sets = [VecSet.from_indices(p, 2, rng.sample(range(cells), rng.randrange(1, cells)))
                    for _ in range(2)]
            kneser_gap(sets)
    res.details.append(
        f"{trials_per_p} sumset pairs per prime in [7, 31]; {vosper_hits} Vosper-equality cases; "
        f"Kneser spot checks at n = 1 and n = 2"
    )
    return res


# ---------------------------------------------------------------------------
# A8: spectral lemma over every enumerated and generated sum-free set


def _a8_sets() -> list[tuple[str, VecSet, int, int]]:
    out = []
    for params in A1_GRID:
        for o in enumerate_max(params).extremal_orbits:
            out.append((f"A1 orbit p={params.p}", VecSet.from_zpset(o), 2, 1))
    for params in A2_GRID:
        k, l, p = params.k, params.l, params.p
        for o in enumerate_max(params).extremal_orbits:
            out.append((f"A2 orbit ({k},{l},{p})", VecSet.from_zpset(o), k, l))
    for params in A5_GRID:
        k, l, p = params.k, params.l, params.p
        for o, _ in enumerate_second_level(params).second_level_orbits:
            out.append((f"A5 orbit ({k},{l},{p})", VecSet.from_zpset(o), k, l))
    for kind, spec in a3_grid():
        params = spec.params
        made = gen_cuboid(spec) if kind == "cuboid" else gen_type(spec)
        out.append((f"A3 {kind} ({params.k},{params.l},{params.p},{params.n})",
                    made, params.k, params.l))
    out.append(("A3 type-5 spot check p=1019", gen_type(A3_SPOT), 3, 1))
    return out


@_timed
def run_a8() -> CriterionResult:
    res = CriterionResult("A8", True)
    checked = 0
    for tag, vec, k, l in _a8_sets():
        chk = verify_spectral_lemma(vec, k, l)
        if not chk.applicable:
            raise GeneratorCheckError(f"{tag} should be sum-free")
        checked += 1
        if not chk.passed:
            res.passed = False
            res.findings.append(f"spectral bound broke on {tag}: {chk.to_dict()}")
        if not chk.vanishing_ok:
            res.passed = False
            res.findings.append(f"vanishing identity broke on {tag}: |sum| = {abs(chk.vanishing)}")
    res.details.append(f"{checked} sum-free sets checked against the spectral bound")
    return res


# ---------------------------------------------------------------------------
# A9: Plancherel and the convolution identity on random sets


@_timed
def run_a9() -> CriterionResult:
    res = CriterionResult("A9", True)
    rng = random.Random(SEED_RANDOM_PROPS + 1)
    zp_primes = primes_in(5, 101)
    vec_primes = (5, 7, 11, 13)
    for trial in range(1000):
        p = zp_primes[trial % len(zp_primes)]
        a = VecSet.from_indices(p, 1, rng.sample(range(p), rng.randrange(1, p)))
        _convolution_case(a, rng.choice((2, 3)), res, trial)
    for trial in range(1000):
        p = vec_primes[trial % len(vec_primes)]
        cells = p * p
        a = VecSet.from_indices(p, 2, rng.sample(range(cells), rng.randrange(1, cells)))
        _convolution_case(a, 2, res, trial)
    res.details.append("1000 sets over Z_p (p <= 101) and 1000 over F_p^2 (p <= 13)")
    return res


def _convolution_case(a: VecSet, h: int, res: CriterionResult, trial: int) -> None:
    import numpy as np

    cells = a.p**a.n
    spec = spectrum(a)  # Plancherel asserted inside to 1e-10
    shape = (a.p,) * a.n
    arr = a.bit_array().reshape(shape).astype(np.float64)
    fa = np.fft.fftn(arr)
    conv = arr
    for _ in range(h - 1):
        conv = np.fft.ifftn(np.fft.fftn(conv) * fa).real / cells
    conv_spec = (np.fft.fftn(conv) / cells).reshape(-1)
    if np.abs(conv_spec - spec.values**h).max() > 1e-9:
        res.passed = False
        res.findings.append(f"convolution identity broke at trial {trial} (p={a.p}, n={a.n})")


# ---------------------------------------------------------------------------
# A10: covering-property scans

A10_GRID_TOP = Fraction(1, 4)
TAU_CHECKPOINT = Fraction(1, 20)


@_timed
def run_a10() -> CriterionResult:
    res = CriterionResult("A10", True)
    grid = tuple(t for t in default_grid() if t <= A10_GRID_TOP)
    for denom in (3, 4, 5):
        for p in primes_in(5, 31):
            scan = tau_scan(p, Fraction(1, denom), mode="exhaustive", grid=grid)
            bad = scan.violations_at(TAU_CHECKPOINT)
            if bad or scan.tau_feasible is None or scan.tau_feasible < TAU_CHECKPOINT:
                res.passed = False
                for v in bad:
                    res.findings.append(f"covering violation p={p} c=1/{denom}: {v.to_dict()}")
        res.details.append(
            f"c=1/{denom}: exhaustive over primes in [5, 31], grid up to {A10_GRID_TOP}, "
            f"zero violations at tau={TAU_CHECKPOINT}"
        )
    sampled = tau_scan(101, Fraction(10, 107), mode="sampled",
                       grid=(Fraction(2, 5),), seed=SEED_SAMPLED_SCAN, trials=100_000)
    if sampled.violations:
        res.passed = False
        for v in sampled.violations:
            res.findings.append(f"sampled covering violation: {v.to_dict()}")
    res.details.append(
        f"sampled p=101 c=1/10.7 tau=2/5: {sampled.sets_examined} sets, "
        f"{sampled.hypothesis_hits} hypothesis hits, {len(sampled.violations)} violations"
    )
    return res


# ---------------------------------------------------------------------------
# A11: equation witnesses from the small-weight case tables

A11_GRID = (
    # (k, l, p, C construction, left, right, max_distinct)
    ("3(3m+2)=(2m+1)+(2m+2) at p=5m+3, m=8",
     3, 2, 43, ("interval", 17, 10), (26, 26, 26), (17, 18), 3),
    ("(3m+1)+2(3m+2)=2(2m+1) at p=5m+3, m=8",
     3, 2, 43, ("interval", 17, 10), (25, 26, 26), (17, 17), 3),
    ("a+a+a=3a and 3(3a)=a+1 at p=8a-1, a=6",
     3, 1, 47, ("interval", 6, 13), (6, 6, 6), (18,), 2),
    ("3(3a)=a+1 at p=8a-1, a=6",
     3, 1, 47, ("interval", 6, 13), (18, 18, 18), (7,), 2),
)


@_timed
def run_a11() -> CriterionResult:
    res = CriterionResult("A11", True)
    for label, k, l, p, cdef, left, right, max_distinct in A11_GRID:
        _, start, length = cdef
        c = ZpSet.interval(p, start, length)
        sols = find_kl_sums(c, k, l, max_distinct)
        if (left, right) in sols:
            res.details.append(f"{label}: witnessed among {len(sols)} solution(s)")
        else:
            res.passed = False
            res.findings.append(f"{label}: {left}={right} missing from the solution list")
    return res


# ---------------------------------------------------------------------------

CRITERIA = {
    "A1": run_a1, "A2": run_a2, "A3": run_a3, "A4": run_a4, "A5": run_a5,
    "A6": run_a6, "A7": run_a7, "A8": run_a8, "A9": run_a9, "A10": run_a10,
    "A11": run_a11,
}


def run_criterion(cid: str) -> CriterionResult:
    cid = cid.upper()
    if cid not in CRITERIA:
        raise KeyError(f"unknown criterion {cid}; choose from {', '.join(CRITERIA)}")
    return CRITERIA[cid]()

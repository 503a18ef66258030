"""The four benchmark workloads: seeded inputs, job lists and output checks.

A workload is a fixed list of jobs.  Each job is one call into a public klsf
entry point (the functions the `klsf` CLI verbs wrap) on inputs generated here
from the workload seed; the library only ever receives those inputs.  Every
job carries an oracle from `oracles` that rejects a wrong output, and a
digest of the output that must repeat exactly on every pass.

Job lists are sized so that one pass takes a few seconds on a 2-core
machine and a run repeats every job several times.  The three workloads with
few, unequal jobs have an odd number of them (25 or 35), so that the median
of the latencies pooled over the passes falls among one job's samples, not
midway between two unequal jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import klsf
from klsf import Params, TypeSpec, VecSet, ZpSet
from klsf.modmath import primes_in

import oracles as o


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]    # None when the oracle accepts the output
    digest: Callable[[Any], Any]          # must be equal on every pass


@dataclass
class Workload:
    jobs: list[Job]
    warmup: Job
    # Checks that are not tied to one job (brute-force cross-checks); each
    # returns None or a failure message and counts as one attempted item.
    cross_checks: list[Callable[[], str | None]] = field(default_factory=list)


def _first_error(checks) -> str | None:
    return next((msg for ok, msg in checks if not ok), None)


# ---------------------------------------------------------------------------
# enumerate: exhaustive search over Z_p near the search limit

ENUM_MAX_LIMITS = {(2, 1): 41, (3, 1): 47, (3, 2): 59, (4, 1): 53}
ENUM_MIN_P = 13
ENUM_SECOND = ((2, 1, 11), (2, 1, 17), (2, 1, 23), (2, 1, 29), (3, 1, 23), (3, 1, 31), (3, 2, 23))
ENUM_BRUTE = ((2, 1, 17), (3, 1, 19), (3, 2, 17), (3, 2, 19), (4, 1, 17), (4, 1, 19))


def _max_job(params: Params) -> Job:
    k, l, p, m = params.k, params.l, params.p, params.m
    want = {o.canonical_mask(iv, p) for iv in o.extremal_intervals(k, l, p)}

    def check(r) -> str | None:
        got = [x.mask for x in r.extremal_orbits]
        return _first_error([
            (r.max_size == m + 1, f"max_size {r.max_size} != m+1 = {m + 1}"),
            (set(got) == want and len(got) == len(want), f"orbits {got} != {sorted(want)}"),
            (all(o.zp_sumfree(o.residues(x), k, l, p) for x in got), "an orbit is not sum-free"),
        ])

    return Job(f"max{(k, l, p)}", lambda: klsf.enumerate_max(params), check,
               lambda r: (r.max_size, tuple(x.mask for x in r.extremal_orbits),
                          r.labeled_count, r.node_count))


def _second_job(params: Params) -> Job:
    k, l, p, m = params.k, params.l, params.p, params.m
    intervals = o.extremal_intervals(k, l, p)

    def check(r) -> str | None:
        masks = [s.mask for s, _ in r.second_level_orbits]
        labels = [rep.label for _, rep in r.second_level_orbits]
        sets = [o.residues(x) for x in masks]
        checks = [
            (len(set(masks)) == len(masks), "duplicate orbits"),
            (all(len(s) == m for s in sets), f"an orbit does not have size m={m}"),
            (all(o.zp_sumfree(s, k, l, p) for s in sets), "an orbit is not sum-free"),
            (all(o.canonical_mask(s, p) == x for s, x in zip(sets, masks)),
             "an orbit representative is not canonical"),
            (not any(o.embeds_in_interval(s, intervals, p) for s in sets),
             "a trivial set was reported as second-level"),
            (not set(labels) & {"trivial", "not-sum-free"}, f"bad labels {labels}"),
        ]
        if (k, l) == (2, 1):
            rz_slice = o.canonical_mask(range(m, 2 * m), p)
            checks.append((rz_slice in masks, "the [m, 2m-1] slice orbit is missing"))
        return _first_error(checks)

    return Job(f"second{(k, l, p)}", lambda: klsf.enumerate_second_level(params), check,
               lambda r: (tuple((s.mask, rep.label) for s, rep in r.second_level_orbits),
                          r.labeled_count, r.node_count))


def _enumerate_cross_check(k: int, l: int, p: int) -> Callable[[], str | None]:
    def run() -> str | None:
        params = Params(k, l, p)
        size, max_orbits, second = o.brute_force_enumeration(k, l, p)
        got_max = klsf.enumerate_max(params)
        got_second = klsf.enumerate_second_level(params)
        return _first_error([
            (got_max.max_size == size, f"brute force {(k, l, p)}: max {got_max.max_size} != {size}"),
            ({x.mask for x in got_max.extremal_orbits} == max_orbits,
             f"brute force {(k, l, p)}: extremal orbits differ"),
            ({s.mask for s, _ in got_second.second_level_orbits} == second,
             f"brute force {(k, l, p)}: second-level orbits differ"),
        ])

    return run


def build_enumerate(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for (k, l), limit in ENUM_MAX_LIMITS.items():
        for p in primes_in(ENUM_MIN_P, limit):
            params = Params(k, l, p)
            if params.m >= 1 and params.lambda_in_range():
                jobs.append(_max_job(params))
    jobs += [_second_job(Params(k, l, p)) for k, l, p in ENUM_SECOND]
    rng.shuffle(jobs)
    return Workload(jobs, _max_job(Params(2, 1, 11)),
                    [_enumerate_cross_check(*rng.choice(ENUM_BRUTE))])


# ---------------------------------------------------------------------------
# classify2d: generated structures in F_p^2 under random automorphisms

CLASSIFY_PRIMES = {
    "rz": (11, 17, 23, 29, 41, 47, 53),
    "type1": (11, 17, 23, 29, 41),
    "type2": (11, 17, 23, 29, 47),
    "type5": (11, 19, 23, 31, 43, 47, 59),
}
GENERATION_ONLY_P = 503


def _random_automorphism(rng: random.Random, p: int) -> list[list[int]]:
    while True:
        m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
            return m


def _random_pset(rng: random.Random, p: int, h: int) -> tuple[tuple[int, ...], ...]:
    """1 to 3 nonzero residues with 0 not in hP (h = 2 for rz, 3 for type 5).

    How many follows from p, not from the seed, so that the set sizes and the
    work per pass are the same for every seed.
    """
    want = 1 + p % 3
    chosen: list[int] = []
    while len(chosen) < want:
        x = rng.randrange(1, p)
        trial = chosen + [x]
        if x not in chosen and 0 not in o.hfold(trial, h, lambda a, b: o.zp_sum(a, b, p)):
            chosen = trial
    return tuple((x,) for x in sorted(chosen))


def _type_spec(kind: str, p: int, rng: random.Random) -> TypeSpec:
    if kind == "type5":
        return TypeSpec("type5", Params(3, 1, p, 2), s=1, pset=_random_pset(rng, p, 3))
    params = Params(2, 1, p, 2)
    if kind == "rz":
        return TypeSpec("rz", params, s=1, pset=_random_pset(rng, p, 2))
    if kind == "type1":
        return TypeSpec("type1", params, a=rng.choice(klsf.type1_a_values(params)))
    return TypeSpec("type2", params, vbasis=())


def _classify_job(kind: str, spec: TypeSpec, rng: random.Random) -> Job:
    pr = spec.params
    p = pr.p
    image = klsf.apply_automorphism(klsf.gen_type(spec), _random_automorphism(rng, p))
    vectors = o.vectors_of(image.mask, p, 2)

    def check(r) -> str | None:
        if r.label != kind:
            return f"{kind} at p={p} labelled {r.label}"
        w = r.witness
        mapped = o.mask_of(o.index_of(tuple(sum(a * x for a, x in zip(row, v)) % p for row in w["matrix"]), p)
                           for v in vectors)
        regen = klsf.gen_type(w["spec"])
        return None if mapped == regen.mask else f"{kind} at p={p}: witness does not regenerate the set"

    return Job(f"classify-{kind}-{p}", lambda: klsf.classify(image, pr.k, pr.l), check,
               lambda r: (r.label, r.witness["spec"], r.witness["matrix"]))


def _generation_job(spec: TypeSpec) -> Job:
    pr = spec.params

    def check(out: VecSet) -> str | None:
        return _first_error([
            (len(out) == pr.m * pr.p, f"size {len(out)} != m*p"),
            (o.grid_sumfree_3_1(out.mask, pr.p), "3A meets A"),
        ])

    return Job(f"generate-type5-{pr.p}", lambda: klsf.gen_type(spec), check, lambda out: out.mask)


def build_classify2d(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for kind, primes in CLASSIFY_PRIMES.items():
        for p in primes:
            jobs.append(_classify_job(kind, _type_spec(kind, p, rng), rng))
    big = TypeSpec("type5", Params(3, 1, GENERATION_ONLY_P, 2), s=1,
                   pset=_random_pset(rng, GENERATION_ONLY_P, 3))
    jobs.append(_generation_job(big))
    rng.shuffle(jobs)
    warm = _classify_job("rz", _type_spec("rz", 11, rng), rng)
    return Workload(jobs, warm)


# ---------------------------------------------------------------------------
# covering: exhaustive (DFS-heavy and violation-heavy) and sampled scans

# (p, c, top of the tau grid); the DFS-heavy scans find no violation.
COVERING_DFS = ((29, Fraction(1, 3), Fraction(3, 5)), (31, Fraction(1, 3), Fraction(1, 4)),
                (29, Fraction(1, 4), Fraction(3, 4)))
COVERING_VIOLATION = ((29, Fraction(1, 5), Fraction(1)), (19, Fraction(1, 3), Fraction(1)),
                      (23, Fraction(1, 4), Fraction(1)))
COVERING_SAMPLED = dict(p=101, c=Fraction(10, 107), tau=Fraction(2, 5), trials=1000, scans=29)
COVERING_BRUTE = ((13, Fraction(1, 3)), (17, Fraction(1, 4)), (17, Fraction(1, 5)), (13, Fraction(1, 4)))


def _grid(top: Fraction) -> tuple[Fraction, ...]:
    return tuple(t for t in klsf.covering.default_grid() if t <= top)


def _scan_digest(scan):
    return (scan.tau_feasible, tuple((v.verdict.set.mask, v.tau_star) for v in scan.violations),
            scan.sets_examined, scan.hypothesis_hits)


def _scan_job(name: str, p: int, c: Fraction, grid, **kw) -> Job:
    def check(scan) -> str | None:
        problems = []
        for v in scan.violations:
            elems = o.residues(v.verdict.set.mask)
            doubling = len(o.zp_sum(elems, elems, p))
            problems += [
                (len(elems) <= c * p, f"violation {elems} exceeds the density bound"),
                (doubling == v.verdict.doubling, f"violation {elems}: doubling {v.verdict.doubling} != {doubling}"),
                (v.tau_star == o.smallest_hypothesis_tau(doubling, len(elems), grid),
                 f"violation {elems}: wrong tau_star {v.tau_star}"),
                (o.canonical_mask(elems, p) == v.verdict.set.mask, f"violation {elems} is not canonical"),
                (not klsf.covering_verdict(v.verdict.set).covered, f"violation {elems} is covered"),
            ]
        first_bad = min((v.tau_star for v in scan.violations), default=None)
        want_feasible = ([t for t in grid if first_bad is None or t < first_bad] or [None])[-1]
        problems.append((scan.tau_feasible == want_feasible,
                         f"tau_feasible {scan.tau_feasible} != {want_feasible}"))
        if kw.get("mode") == "sampled":
            problems.append((scan.sets_examined == kw["trials"], "sampled scan skipped trials"))
        return _first_error(problems)

    return Job(name, lambda: klsf.tau_scan(p, c, grid=grid, **kw), check, _scan_digest)


def _covering_cross_check(p: int, c: Fraction) -> Callable[[], str | None]:
    def run() -> str | None:
        grid = _grid(Fraction(1))
        want = o.brute_force_violations(p, c, grid)
        got = {v.verdict.set.mask: v.tau_star for v in klsf.tau_scan(p, c, grid=grid).violations}
        return None if got == want else f"brute force p={p} c={c}: violation orbits differ"

    return run


def build_covering(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [_scan_job(f"{kind}-{p}-{c}-{top}", p, c, _grid(top))
            for kind, cases in (("dfs", COVERING_DFS), ("violations", COVERING_VIOLATION))
            for p, c, top in cases]
    s = COVERING_SAMPLED
    for i in range(s["scans"]):
        jobs.append(_scan_job(f"sampled-{i}", s["p"], s["c"], (s["tau"],), mode="sampled",
                              seed=rng.randrange(1 << 30), trials=s["trials"]))
    rng.shuffle(jobs)
    warm = _scan_job("warmup", 13, Fraction(1, 3), _grid(Fraction(1)))
    return Workload(jobs, warm, [_covering_cross_check(*rng.choice(COVERING_BRUTE))])


# ---------------------------------------------------------------------------
# kernels: many small random sets through the sumset and Fourier kernels

KERNEL_COUNTS = dict(zp_sumset=2000, vsumset1=1500, vsumset2=1500, sumfree=750, kneser=200, spectral=600)
ZP_PRIMES = primes_in(7, 31)
VEC_PRIMES = (5, 7, 11, 13)
SPECTRAL_CASES = ((2, 1, 11), (2, 1, 17), (2, 1, 23), (3, 1, 11), (3, 1, 19), (3, 1, 23))
SPECTRAL_DIRECT_SAMPLE = 6
TOL = 1e-9


def _size(i: int, cells: int) -> int:
    """Deterministic size schedule, so a pass does the same work for every seed."""
    return 1 + (i * 7919) % (cells - 1)


def _idx(a) -> np.ndarray:
    return np.array(o.residues(a.mask), dtype=np.int64)


def _rand_vecset(rng: random.Random, p: int, n: int, size: int) -> VecSet:
    return VecSet.from_indices(p, n, rng.sample(range(p**n), size))


class _SumFreeSource:
    """Random halves-or-more of extremal cuboids in F_p^2, moved by automorphisms."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cuboids: dict[tuple[int, int, int], VecSet] = {}

    def __call__(self, k: int, l: int, p: int, i: int) -> VecSet:
        base = self.cuboids.get((k, l, p))
        if base is None:
            base = self.cuboids[k, l, p] = klsf.gen_cuboid(klsf.CuboidSpec(Params(k, l, p, 2), 0))
        moved = klsf.apply_automorphism(base, _random_automorphism(self.rng, p))
        idx = o.residues(moved.mask)
        keep = len(idx) // 2 + i % (len(idx) - len(idx) // 2)
        return VecSet.from_indices(p, 2, self.rng.sample(idx, keep))


def _zp_sumset_job(rng, i) -> Job:
    p = ZP_PRIMES[i % len(ZP_PRIMES)]
    a = ZpSet(p, rng.sample(range(p), _size(i, p)))
    b = ZpSet(p, rng.sample(range(p), _size(i + 1, p)))

    def check(s) -> str | None:
        want = o.zp_sum(a.elements(), b.elements(), p)
        return _first_error([
            (s.mask == o.mask_of(want), f"zp sumset p={p} differs from the naive sumset"),
            (len(s) >= min(p, len(a) + len(b) - 1), f"Cauchy-Davenport fails at p={p}"),
        ])

    return Job(f"zp-sumset-{p}", lambda: klsf.sumset(a, b), check, lambda s: s.mask)


def _vsumset_job(rng, i, n: int) -> Job:
    primes = ZP_PRIMES if n == 1 else VEC_PRIMES
    p = primes[i % len(primes)]
    a = _rand_vecset(rng, p, n, _size(i, p**n))
    b = _rand_vecset(rng, p, n, _size(3 * i + 1, p**n))

    def check(s) -> str | None:
        ok = s.mask == o.mask_of(o.vec_sum_idx(_idx(a), _idx(b), p, n).tolist())
        return None if ok else f"vsumset n={n} p={p} differs from the naive sumset"

    return Job(f"vsumset-n{n}-{p}", lambda: klsf.vsumset(a, b), check, lambda s: s.mask)


def _sumfree_job(rng, i, source) -> Job:
    k, l = (2, 1) if i % 2 else (3, 1)
    p = VEC_PRIMES[i // 2 % len(VEC_PRIMES)]
    if i % 4 < 2 and Params(k, l, p).lambda_in_range():
        a = source(k, l, p, i)
    else:
        a = _rand_vecset(rng, p, 2, 1 + i % (p * p // 3))

    def check(r) -> str | None:
        want = o.vec_sumfree_idx(_idx(a), k, l, p, 2)
        return None if r == want else f"vec_is_kl_sumfree({k},{l}) p={p} returned {r}"

    return Job(f"sumfree-{p}", lambda: klsf.vec_is_kl_sumfree(a, k, l), check, lambda r: r)


def _kneser_job(rng, i) -> Job:
    n = 1 + i % 2
    primes = ZP_PRIMES if n == 1 else VEC_PRIMES
    p = primes[i // 2 % len(primes)]
    count = 2 + i % 2
    if n == 2 and i % 4 == 3:
        # Sets inside cosets of one line, so the stabilizer is a proper subgroup.
        d = (1, rng.randrange(p))
        sets = []
        for _ in range(count):
            off = (rng.randrange(p), rng.randrange(p))
            pts = rng.sample(range(p), rng.randint(1, p - 1))
            sets.append(VecSet(p, 2, [((off[0] + t * d[0]) % p, (off[1] + t * d[1]) % p) for t in pts]))
    else:
        sets = [_rand_vecset(rng, p, n, _size(i + j, p**n)) for j in range(count)]

    def check(r) -> str | None:
        idx = [_idx(s) for s in sets]
        total = idx[0]
        for x in idx[1:]:
            total = o.vec_sum_idx(total, x, p, n)
        h = o.stabilizer_idx(total, p, n)
        rhs = sum(len(o.vec_sum_idx(x, h, p, n)) for x in idx) - (count - 1) * len(h)
        return _first_error([
            (r == (len(total), rhs), f"kneser_gap n={n} p={p}: {r} != {(len(total), rhs)}"),
            (r[0] >= r[1], f"Kneser's bound fails at n={n} p={p}"),
        ])

    return Job(f"kneser-n{n}-{p}", lambda: klsf.kneser_gap(sets), check, lambda r: r)


def _spectral_job(i, direct: bool, source) -> Job:
    k, l, p = SPECTRAL_CASES[i % len(SPECTRAL_CASES)]
    a = source(k, l, p, i)

    def check(r) -> str | None:
        alpha = len(a) / p**2
        checks = [
            (r.applicable and r.passed and r.vanishing_ok, f"spectral lemma fails at {(k, l, p)}"),
            (abs(r.alpha - alpha) <= TOL, f"density {r.alpha} != {alpha}"),
        ]
        if direct:
            vals = o.dft_direct(o.vectors_of(a.mask, p, 2), p, 2)
            ref = klsf.spectrum_direct(a)
            vanish = complex(((vals ** (k - l)) * abs(vals) ** (2 * l)).sum())
            checks += [
                (abs(vals - ref).max() <= TOL, "spectrum_direct disagrees with the direct DFT"),
                (abs(r.max_nonzero - abs(vals[1:]).max()) <= TOL, "max nonzero coefficient differs"),
                (abs(r.vanishing - vanish) <= TOL, "vanishing sum differs"),
            ]
        return _first_error(checks)

    return Job(f"spectral-{p}", lambda: klsf.verify_spectral_lemma(a, k, l), check,
               lambda r: (r.applicable, r.passed, r.vanishing_ok))


def build_kernels(seed: int) -> Workload:
    rng = random.Random(seed)
    source = _SumFreeSource(rng)
    c = KERNEL_COUNTS
    direct = set(rng.sample(range(c["spectral"]), SPECTRAL_DIRECT_SAMPLE))
    jobs = [_zp_sumset_job(rng, i) for i in range(c["zp_sumset"])]
    jobs += [_vsumset_job(rng, i, 1) for i in range(c["vsumset1"])]
    jobs += [_vsumset_job(rng, i, 2) for i in range(c["vsumset2"])]
    jobs += [_sumfree_job(rng, i, source) for i in range(c["sumfree"])]
    jobs += [_kneser_job(rng, i) for i in range(c["kneser"])]
    jobs += [_spectral_job(i, i in direct, source) for i in range(c["spectral"])]
    rng.shuffle(jobs)
    return Workload(jobs, _spectral_job(0, False, source))


BUILDERS = {
    "enumerate": build_enumerate,
    "classify2d": build_classify2d,
    "covering": build_covering,
    "kernels": build_kernels,
}

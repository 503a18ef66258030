"""Search: canonical forms, completeness vs a no-pruning brute force, determinism."""

import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from klsf.zpset import ZpSet, dilate, is_kl_sumfree
from klsf import cli, search
from klsf.modmath import dilation_orbits, primes_in
from klsf.constructions import GeneratorCheckError, ParameterError, extremal_intervals
from klsf.vecset import Params
from klsf.search import (
    SearchLimitError,
    canonical_form,
    enumerate_max,
    enumerate_second_level,
)


def brute_force_orbits(p, k, l, size):
    """All dilation orbits of (k,l)-sum-free size-`size` subsets of Z_p,
    via plain combinations (independent of the DFS kernels)."""
    out = set()
    for combo in combinations(range(1, p), size):  # 0 never occurs
        a = ZpSet(p, combo)
        if is_kl_sumfree(a, k, l):
            out.add(min(dilate(a, c).mask for c in range(1, p)))
    return out


def test_canonical_form_examples():
    orbit_member = ZpSet(11, [2, 7, 10])
    canon = canonical_form(orbit_member)
    assert canon == canonical_form(ZpSet(11, [3, 4, 5]))
    assert canonical_form(canon) == canon
    assert all(canon.mask <= dilate(orbit_member, c).mask for c in range(1, 11))
    assert canonical_form(ZpSet(11, [7])) == ZpSet(11, [1])
    assert canonical_form(ZpSet(11, [0])) == ZpSet(11, [0])
    assert canonical_form(ZpSet(11)) == ZpSet(11)


def test_canonical_form_constant_on_orbits():
    a = ZpSet(13, [1, 3, 8, 9])
    forms = {canonical_form(dilate(a, c)).mask for c in range(1, 13)}
    assert len(forms) == 1


def test_enumerate_max_examples():
    run = enumerate_max(Params(2, 1, 11))
    assert run.max_size == 4
    assert run.extremal_orbits == (canonical_form(ZpSet.interval(11, 4, 4)),)
    assert run.labeled_count == 5  # the orbit of [4,7] has 5 labeled members
    run31 = enumerate_max(Params(3, 1, 23))
    assert run31.max_size == 6
    assert run31.extremal_orbits == (canonical_form(ZpSet.interval(23, 15, 6)),)
    run32 = enumerate_max(Params(3, 2, 17))
    assert run32.max_size == 4
    assert run32.extremal_orbits == (canonical_form(ZpSet.interval(17, 7, 4)),)


def test_enumerate_max_agrees_with_brute_force():
    for k, l, p in ((2, 1, 11), (2, 1, 17), (3, 1, 11), (3, 2, 13), (4, 1, 17), (3, 1, 17)):
        run = enumerate_max(Params(k, l, p))
        want = brute_force_orbits(p, k, l, run.max_size)
        assert {o.mask for o in run.extremal_orbits} == want
        assert not brute_force_orbits(p, k, l, run.max_size + 1)


def test_second_level_agrees_with_brute_force():
    for k, l, p in ((2, 1, 11), (2, 1, 17), (3, 1, 11)):
        params = Params(k, l, p)
        run = enumerate_second_level(params)
        from klsf.constructions import extremal_intervals

        intervals = extremal_intervals(params)
        want = set()
        for mask in brute_force_orbits(p, k, l, params.m):
            a = ZpSet.from_mask(p, mask)
            if not any(dilate(a, c).issubset(iv) for c in range(1, p) for iv in intervals):
                want.add(mask)
        assert {o.mask for o, _ in run.second_level_orbits} == want


def test_second_level_examples():
    run = enumerate_second_level(Params(2, 1, 11))
    masks = {o.mask for o, _ in run.second_level_orbits}
    assert canonical_form(ZpSet.interval(11, 3, 3)).mask in masks  # [m, 2m-1]
    run31 = enumerate_second_level(Params(3, 1, 23))
    labels = {o.mask: rep.label for o, rep in run31.second_level_orbits}
    assert labels[canonical_form(ZpSet.interval(23, 5, 5)).mask] == "type1"


def test_second_level_taxonomy_at_abnormal_window():
    # p = 5m+3 points carry exactly two type-1 orbits plus the type-3 orbit
    # in dimension 1, for both (3,2) and (4,1); none remain unlabeled.
    for k, l, p in ((3, 2, 23), (4, 1, 23), (3, 2, 43), (4, 1, 43)):
        run = enumerate_second_level(Params(k, l, p))
        labels = sorted(rep.label for _, rep in run.second_level_orbits)
        assert labels == ["type1", "type1", "type3"], (k, l, p, labels)
        assert not run.findings


def test_second_level_smallest_case():
    run = enumerate_second_level(Params(2, 1, 5))
    assert run.second_level_orbits == ()  # every singleton embeds in [2,3]


def test_every_listed_set_is_sumfree_and_canonical():
    run = enumerate_max(Params(3, 2, 19))
    assert len(run.extremal_orbits) == 2  # lam = 2 gives two orbits
    for o in run.extremal_orbits:
        assert is_kl_sumfree(o, 3, 2)
        assert canonical_form(o) == o
    masks = [o.mask for o in run.extremal_orbits]
    assert masks == sorted(masks)


def test_determinism():
    a = enumerate_max(Params(2, 1, 23))
    b = enumerate_max(Params(2, 1, 23))
    assert a.max_size == b.max_size
    assert a.extremal_orbits == b.extremal_orbits
    assert a.node_count == b.node_count
    s1 = enumerate_second_level(Params(2, 1, 17))
    s2 = enumerate_second_level(Params(2, 1, 17))
    assert [(o.mask, r.label) for o, r in s1.second_level_orbits] == [
        (o.mask, r.label) for o, r in s2.second_level_orbits
    ]


def test_degenerate_modulus_divides_k_minus_l():
    # p | k-l forces kx = lx for every x, so nothing is sum-free at all
    run = enumerate_max(Params(6, 1, 5))
    assert run.max_size == 0 and run.extremal_orbits == ()
    run2 = enumerate_max(Params(8, 1, 7))
    assert run2.max_size == 0 and run2.labeled_count == 0


def test_limit_refusal():
    with pytest.raises(SearchLimitError, match="exceeds the search limit"):
        enumerate_max(Params(2, 1, 61))
    with pytest.raises(SearchLimitError):
        enumerate_second_level(Params(2, 1, 101), p_limit=59)


def test_second_level_checks_lambda_before_the_search(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("_scan ran for parameters outside the lam window")

    monkeypatch.setattr(search, "_scan", no_scan)
    with pytest.raises(ParameterError, match="lam <= k\\+l-3"):
        enumerate_second_level(Params(2, 1, 43))  # lam = 2 > k+l-3 = 0


def test_second_level_needs_m_at_least_1(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("_scan ran for m < 1")

    monkeypatch.setattr(search, "_scan", no_scan)
    for k, l, p in ((4, 1, 5), (2, 1, 3), (3, 1, 5)):
        assert Params(k, l, p).m == 0
        with pytest.raises(ParameterError, match=f"\\(k,l,p,n\\)=\\({k},{l},{p},1\\) has m=0"):
            enumerate_second_level(Params(k, l, p))
        assert cli.main(["enumerate", "--k", str(k), "--l", str(l), "--p", str(p),
                         "--level", "second"]) == 1


def brute_force_labeled(p, k, l, size):
    """Every (k,l)-sum-free size-`size` subset of Z_p, not only those containing 1."""
    return [a for a in (ZpSet(p, combo) for combo in combinations(range(1, p), size))
            if is_kl_sumfree(a, k, l)]


SMALL_KL = [(k, l) for k in range(2, 7) for l in range(1, k) if k + l <= 7]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]
SMALL_CASES = [(k, l, p) for k, l in SMALL_KL for p in SMALL_PRIMES]


@given(st.sampled_from(SMALL_CASES))
def test_enumerate_max_property(case):
    k, l, p = case
    run = enumerate_max(Params(k, l, p))
    assert not brute_force_orbits(p, k, l, run.max_size + 1)
    if run.max_size == 0:  # p | k-l: not even a singleton is sum-free
        assert run.extremal_orbits == () and run.labeled_count == 0
        return
    assert {o.mask for o in run.extremal_orbits} == brute_force_orbits(p, k, l, run.max_size)
    assert run.labeled_count == len(brute_force_labeled(p, k, l, run.max_size))


@given(st.sampled_from([c for c in SMALL_CASES if Params(*c).lambda_in_range()]))
def test_second_level_property(case):
    k, l, p = case
    params = Params(k, l, p)
    run = enumerate_second_level(params)
    intervals = extremal_intervals(params)

    def nontrivial(a):
        return not any(dilate(a, c).issubset(iv) for c in range(1, p) for iv in intervals)

    want = {mask for mask in brute_force_orbits(p, k, l, params.m)
            if nontrivial(ZpSet.from_mask(p, mask))}
    assert {o.mask for o, _ in run.second_level_orbits} == want
    labeled = [a for a in brute_force_labeled(p, k, l, params.m) if nontrivial(a)]
    assert run.labeled_count == len(labeled)


def test_second_level_labels_match_the_public_classifier():
    # The search labels each nontrivial orbit with the Z_p matcher directly;
    # the public `classify`, which re-checks sum-freeness and triviality,
    # must give the same report for every orbit.
    from klsf.classify import classify
    from klsf.vecset import VecSet

    cases = [(k, l, p) for k, l in ((2, 1), (3, 1), (4, 1), (3, 2)) for p in primes_in(2, 41)
             if Params(k, l, p).m >= 1 and Params(k, l, p).lambda_in_range()]
    assert len(cases) == 25
    orbits = 0
    for k, l, p in cases:
        for rep, report in enumerate_second_level(Params(k, l, p)).second_level_orbits:
            assert report == classify(VecSet.from_zpset(rep), k, l), (k, l, p, rep)
            orbits += 1
    assert orbits == 31


def test_self_check_catches_a_dropped_hit(monkeypatch):
    scan = search._scan

    def drop_first_hit(*args, **kwargs):
        best, hits, nodes = scan(*args, **kwargs)
        return best, hits[1:], nodes

    monkeypatch.setattr(search, "_scan", drop_first_hit)
    # (2,1,11): one extremal orbit, the interval [4,7], met once by the tree
    # (least ratio 3: #{a in A : 3a in A} = 2 = |Stab(A)|), so no hit is
    # left and the completeness check misses the interval's orbit
    with pytest.raises(GeneratorCheckError,
                       match=r"missed the orbit of \[4, 5, 6, 7\] \(sum-free interval of length 4\)"):
        enumerate_max(Params(2, 1, 11))


def reference_warm_start(p, k, l):
    """The scan over every interval that `search._warm_start` replaced, kept
    as the reference for it: the length of the longest (k,l)-sum-free
    interval of Z_p.  This is the earlier module's code."""
    best = 0
    for start in range(p):
        length = best  # only try to beat the record
        while length < p:
            cand = ZpSet.interval(p, start, length + 1)
            if not is_kl_sumfree(cand, k, l):
                break
            length += 1
            best = length
    return best


# 2 <= k <= 8, 1 <= l < k, prime p <= 61 not dividing k-l
WARM_START_CASES = [(k, l, p) for k in range(2, 9) for l in range(1, k)
                    for p in primes_in(2, 61) if (k - l) % p]


def test_warm_start_closed_form_matches_interval_scan():
    assert len(WARM_START_CASES) == 481
    for k, l, p in WARM_START_CASES:
        assert search._warm_start(p, k, l) == reference_warm_start(p, k, l) == Params(k, l, p).m + 1, \
            (k, l, p)


def test_warm_start_check_survives_optimize():
    # The check on the closed-form interval is an explicit raise: with the
    # sum-freeness test forced to fail it fires under python -O, and
    # `klsf enumerate` exits 2.
    script = """
import sys
from klsf import cli, search
from klsf.modmath import GeneratorCheckError
from klsf.vecset import Params

if not sys.flags.optimize:
    sys.exit("not running under -O")
search.is_kl_sumfree = lambda a, k, l: False
try:
    search.enumerate_max(Params(3, 1, 23))
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["enumerate", "--k", "3", "--l", "1", "--p", "23"]))
"""
    lines = run_optimized(script)
    assert lines[0].startswith("raised: warm-start interval") and "implementation bug" in lines[0]


def run_optimized(script):
    """Run `script` under python -O with ./src importable; its stdout lines,
    after checking that it ended with `exit 2` and a failed check on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "exit 2"
    assert "check failed" in run.stderr
    return lines


def test_orbit_self_check_survives_optimize():
    # The orbit-emission check is an explicit raise: with one hit dropped
    # from the scan it fires under python -O, and `klsf enumerate` exits 2.
    script = """
import sys
from klsf import cli, search
from klsf.modmath import GeneratorCheckError
from klsf.vecset import Params

if not sys.flags.optimize:
    sys.exit("not running under -O")
scan = search._scan

def drop_first_hit(*args, **kwargs):
    best, hits, counts = scan(*args, **kwargs)
    return best, hits[1:], counts

search._scan = drop_first_hit
try:
    search.enumerate_max(Params(2, 1, 11))
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["enumerate", "--k", "2", "--l", "1", "--p", "11"]))
"""
    lines = run_optimized(script)
    # the dropped hit was its orbit's only one, so the completeness check fires
    assert lines[0].startswith("raised: search missed the orbit of [4, 5, 6, 7]")
    assert "(sum-free interval of length 4)" in lines[0] and "implementation bug" in lines[0]


def test_emission_count_check_survives_optimize():
    # The emission count is an explicit raise: with the (2,1,11) hit
    # emitted twice it fires under python -O, and `klsf enumerate` exits 2.
    script = """
import sys
from klsf import cli, search
from klsf.modmath import GeneratorCheckError
from klsf.vecset import Params

if not sys.flags.optimize:
    sys.exit("not running under -O")
scan = search._scan

def repeat_first_hit(*args, **kwargs):
    best, hits, counts = scan(*args, **kwargs)
    return best, hits[:1] + hits, counts

search._scan = repeat_first_hit
try:
    search.enumerate_max(Params(2, 1, 11))
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["enumerate", "--k", "2", "--l", "1", "--p", "11"]))
"""
    lines = run_optimized(script)
    assert lines[0].startswith("raised: search emitted the orbit of [4, 5, 6, 7] 2 times")
    assert "expected #{a in A : r*a in A}/|Stab(A)| = 2/2" in lines[0]
    assert "implementation bug" in lines[0]


def test_coset_orbit_completeness_survives_optimize():
    # {1,6} = {1,-1} at (2,1,7) is a coset of its stabilizer {1,-1}, so its
    # orbit is met once and dropping it leaves no count to disagree.  The
    # completeness check still misses it: it is the orbit of the interval
    # {3,4} = 3{1,6}.  It fires under python -O, and `klsf enumerate` exits 2.
    script = """
import sys
from klsf import cli, search
from klsf.modmath import GeneratorCheckError
from klsf.vecset import Params

if not sys.flags.optimize:
    sys.exit("not running under -O")
scan = search._scan
coset = (1 << 1) | (1 << 6)

def drop_coset(*args, **kwargs):
    best, hits, counts = scan(*args, **kwargs)
    if coset not in hits:
        sys.exit("the tree did not emit {1,6}")
    return best, [h for h in hits if h != coset], counts

search._scan = drop_coset
try:
    search.enumerate_max(Params(2, 1, 7))
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["enumerate", "--k", "2", "--l", "1", "--p", "7"]))
"""
    lines = run_optimized(script)
    assert lines[0].startswith("raised: search missed the orbit of [3, 4]")
    assert "(sum-free interval of length 2)" in lines[0] and "implementation bug" in lines[0]


def reference_scan(p, k, l, target):
    """The node-at-a-time DFS that `search._scan` replaced, without the ratio
    rule, kept as the completeness oracle: it meets every sum-free set
    containing 1, so each orbit |A|/|Stab(A)| times.  (best, hit masks, node
    count).  Apart from testing p | k-l first (and then reporting 0 as the
    maximum), this is the earlier module's code."""
    if (k - l) % p == 0:
        return (0 if target is None else target), [], 0
    full = (1 << p) - 1
    best = target if target is not None else max(1, reference_warm_start(p, k, l))
    hits = []
    node_count = 0
    root_folds = [1 << (h % p) for h in range(k + 1)]
    stack = [(0b10, 1, full & ~0b11, root_folds)]
    while stack:
        amask, size, cand, folds = stack.pop()
        node_count += 1
        if size == best:
            hits.append(amask)
            if target is not None:
                continue
        elif size > best and target is None:
            best = size
            hits = [amask]
        if target is not None and size >= target:
            continue
        feasible = []
        c = cand
        while c:
            low = c & -c
            c ^= low
            x = low.bit_length() - 1
            nf = [1]
            prev = 1
            for h in range(1, k + 1):
                prev = folds[h] | (((prev << x) | (prev >> (p - x))) & full)
                nf.append(prev)
            if not nf[k] & nf[l]:
                feasible.append((low, nf))
        suffix = 0
        pushes = []
        for i in range(len(feasible) - 1, -1, -1):
            low, nf = feasible[i]
            if size + 1 + suffix.bit_count() >= best:
                pushes.append((amask | low, size + 1, suffix, nf))
            suffix |= low
        stack.extend(pushes)
    return best, hits, node_count


def least_ratio(elems, p):
    """The least ratio y/a mod p of two distinct elements (None for one element)."""
    return min((y * pow(a, -1, p) % p for a in elems for y in elems if y != a), default=None)


def reference_cut_scan(p, k, l, target):
    """`reference_scan` with the ratio rule, node at a time, kept as the
    reference for the tree of `search._scan`: (best, hit masks, (node count,
    collision prunes, size prunes, ratio prunes)).  A child whose own ratios
    fall below its second element t is not made (only {1, x} with
    x^(-1) < x can be such a child), and a candidate y leaves a child's
    candidates when y/a mod p is in [2, t-1] or its inverses for an element
    a of the child."""
    if (k - l) % p == 0:
        return (0 if target is None else target), [], (0, 0, 0, 0)
    full = (1 << p) - 1
    best = target if target is not None else max(1, reference_warm_start(p, k, l))
    hits = []
    nodes = collisions = size_cuts = ratio_cuts = 0
    root_folds = [1 << (h % p) for h in range(k + 1)]
    stack = [(0b10, 1, full & ~0b11, root_folds)]
    while stack:
        amask, size, cand, folds = stack.pop()
        nodes += 1
        if size == best:
            hits.append(amask)
            if target is not None:
                continue
        elif size > best and target is None:
            best = size
            hits = [amask]
        if target is not None and size >= target:
            continue
        feasible = []
        c = cand
        while c:
            low = c & -c
            c ^= low
            x = low.bit_length() - 1
            nf = [1]
            prev = 1
            for h in range(1, k + 1):
                prev = folds[h] | (((prev << x) | (prev >> (p - x))) & full)
                nf.append(prev)
            if nf[k] & nf[l]:
                collisions += 1
            else:
                feasible.append((low, nf))
        suffix = 0
        pushes = []
        for i in range(len(feasible) - 1, -1, -1):
            low, nf = feasible[i]
            child = [y for y in range(p) if (amask | low) >> y & 1]
            t = child[1]
            below = set(range(2, t)) | {pow(r, -1, p) for r in range(2, t)}
            if least_ratio(child, p) < t:
                ratio_cuts += 1
            else:
                child_cand = 0
                for y in range(p):
                    if suffix >> y & 1:
                        if any(y * pow(a, -1, p) % p in below for a in child):
                            ratio_cuts += 1
                        else:
                            child_cand |= 1 << y
                if size + 1 + child_cand.bit_count() >= best:
                    pushes.append((amask | low, size + 1, child_cand, nf))
                else:
                    size_cuts += 1
            suffix |= low
        stack.extend(pushes)
    return best, hits, (nodes, collisions, size_cuts, ratio_cuts)


def reference_orbits(p, hits):
    """Canonical mask -> |Stab(A)| of the orbits of the uncut tree's hits,
    after checking that each was met |A|/|Stab(A)| times."""
    least, stab_sizes = dilation_orbits(p, hits)
    stabs = dict(zip(least, stab_sizes))
    emitted = Counter(least)
    assert all(emitted[canon] * stab == canon.bit_count() for canon, stab in stabs.items())
    return stabs


def assert_same_tree(p, k, l, target):
    """`search._scan` against both references: the same tree, hits and
    counters as the node-at-a-time scan with the ratio rule, and the same
    best, orbits, stabilizers and labelled count as the uncut scan."""
    best, hits, counts = search._scan(p, k, l, target)
    want_best, want_hits, want_counts = reference_cut_scan(p, k, l, target)
    assert (best, Counter(hits), tuple(counts)) == (want_best, Counter(want_hits), want_counts), \
        (k, l, p, target)
    uncut_best, uncut_hits, _ = reference_scan(p, k, l, target)
    got, want = search._orbit_stabilizers(hits, p), reference_orbits(p, uncut_hits)
    assert (best, got, search._labeled_count(got.values(), p)) == \
        (uncut_best, want, search._labeled_count(want.values(), p)), (k, l, p, target)
    return counts


def test_block_scan_matches_reference_on_small_cases():
    for k, l, p in SMALL_CASES:
        for target in (None, 2, 3, Params(k, l, p).m):
            assert_same_tree(p, k, l, target)


# The jobs of the benchmark's enumerate workload: maxima near the search
# limit and second-level searches (target m).
ENUM_MAX_LIMITS = {(2, 1): 41, (3, 1): 47, (3, 2): 59, (4, 1): 53}
ENUM_SECOND = ((2, 1, 11), (2, 1, 17), (2, 1, 23), (2, 1, 29), (3, 1, 23), (3, 1, 31), (3, 2, 23))
ENUM_CASES = [(k, l, p, None) for (k, l), limit in ENUM_MAX_LIMITS.items()
              for p in primes_in(13, limit)
              if Params(k, l, p).m >= 1 and Params(k, l, p).lambda_in_range()]
ENUM_CASES += [(k, l, p, Params(k, l, p).m) for k, l, p in ENUM_SECOND]


def test_block_scan_matches_reference_on_enumerate_workload():
    for k, l, p, target in ENUM_CASES:
        assert_same_tree(p, k, l, target)


def test_block_scan_matches_reference_above_the_word_limit():
    # p = 67 > 61 runs the scan on Python-int masks
    counts = assert_same_tree(67, 4, 1, None)
    run = enumerate_max(Params(4, 1, 67), p_limit=67)
    assert run.max_size == Params(4, 1, 67).m + 1
    assert run.node_count == counts.node_count
    assert (run.prunes_collision, run.prunes_size, run.prunes_ratio) == \
        (counts.prunes_collision, counts.prunes_size, counts.prunes_ratio)


@given(st.integers(2, 7).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k - 1))),
       st.sampled_from(primes_in(2, 31)), st.integers(0, 4))
def test_block_scan_matches_reference_property(kl, p, t):
    k, l = kl
    assert_same_tree(p, k, l, None if t == 0 else t)


def brute_force_hits(p, k, l, size):
    """Masks of every (k,l)-sum-free size-`size` subset of Z_p containing 1
    whose second element is its least ratio (`least_ratio`, plain
    arithmetic): the members of each orbit that the tree keeps."""
    tuples = ((1,) + rest for rest in combinations(range(2, p), size - 1))
    kept = [elems for elems in tuples if size == 1 or least_ratio(elems, p) == elems[1]]
    return sorted(a.mask for a in (ZpSet(p, elems) for elems in kept) if is_kl_sumfree(a, k, l))


def test_scan_hits_are_every_sumfree_set_containing_1():
    # The emission count cannot see a lost orbit met once by the tree, and
    # the completeness check sees only the orbits the tool builds, so the
    # raw hit list is checked as a whole.  Fixed targets go first: they stop
    # at their depth even if a wrong candidate mask lets a set repeat a
    # residue.
    for k, l, p in SMALL_CASES:
        for target in (2, 3, Params(k, l, p).m, None):
            best, hits, _ = search._scan(p, k, l, target)
            want = brute_force_hits(p, k, l, best) if best else []
            assert sorted(hits) == want, (k, l, p, target)


def test_completeness_check_covers_every_labelled_orbit():
    # The sets the tool builds without the search (sum-free intervals,
    # subsets of extremal intervals, table supports) reach every orbit of
    # both levels but three "nontrivial-unknown" ones, which surface as
    # findings.
    cases = [Params(k, l, p) for k in range(2, 8) for l in range(1, k) if k + l <= 8
             for p in primes_in(7, 47) if Params(k, l, p).lambda_in_range()]
    orbits, outside = 0, []
    for params in cases:
        p, k, l = params.p, params.k, params.l
        for second in (False, True):
            best, hits, _ = search._scan(p, k, l, params.m if second else None)
            masks = set(search._orbit_stabilizers(hits, p))
            built = {canon for canon, _ in search._built_orbits(params, best, second)}
            orbits += len(masks)
            outside += [(k, l, p, second, sorted(ZpSet.from_mask(p, m).elements()))
                        for m in sorted(masks - built)]
    assert orbits == 910
    assert outside == [(4, 1, 19, True, [2, 3, 7]), (5, 1, 23, True, [1, 7, 9]),
                       (7, 1, 31, True, [6, 7, 10])]
    for k, l, p, _, elems in outside:
        run = enumerate_second_level(Params(k, l, p))
        labels = {tuple(o.elements()): rep.label for o, rep in run.second_level_orbits}
        assert labels[tuple(elems)] == "nontrivial-unknown"
        assert any(str(elems) in finding for finding in run.findings)


@pytest.mark.parametrize("p", [2, 3, 7, 13, 61, 67])
def test_ratio_table_entries(p):
    # Entry (t, a): the residues x with x/a or a/x in [2, t-1]; the diagonal
    # also holds those with x or 1/x in [2, t-1] (the root's a = 1).
    table = search._ratio_table(p)
    assert table.shape == (p, p) and not table.flags.writeable
    for t in range(p):
        below = set(range(2, t))
        for a in range(1, p):
            want = {x for x in range(1, p)
                    if x * pow(a, -1, p) % p in below or a * pow(x, -1, p) % p in below
                    or (a == t and (x in below or pow(x, -1, p) in below))}
            assert int(table[t, a]) == sum(1 << x for x in want), (p, t, a)


def test_prune_counters():
    run = enumerate_max(Params(2, 1, 11))
    assert run.to_dict()["prunes_collision"] == run.prunes_collision > 0
    assert run.to_dict()["prunes_size"] == run.prunes_size > 0
    assert run.to_dict()["prunes_ratio"] == run.prunes_ratio > 0
    none = enumerate_max(Params(6, 1, 5))  # no tree at all
    assert none.prunes_collision == none.prunes_size == none.prunes_ratio == 0

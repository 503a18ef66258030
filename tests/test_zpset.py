"""Residue-set arithmetic against independent brute-force oracles."""

import random
from itertools import combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klsf import covering, modmath
from klsf.zpset import (
    ApCover,
    ZpSet,
    ZpSetError,
    dilate,
    ed_count,
    ed_profile,
    find_kl_sums,
    format_zpset,
    hfold,
    holes,
    is_ap,
    is_kl_sumfree,
    min_ap_cover,
    parse_zpset,
    sumset,
)
from klsf.modmath import primes_in


# ---------------------------------------------------------------------------
# Oracles: direct definitions, no shared code with the kernels under test


def naive_sumset(a, b):
    return ZpSet(a.p, {(x + y) % a.p for x in a for y in b} if len(a) and len(b) else ())


def naive_hfold(a, h):
    out = a
    for _ in range(h - 1):
        out = naive_sumset(out, a)
    return out


def naive_ed(a, d):
    pairs = 0
    for x in a:
        for y in ((x + d) % a.p, (x - d) % a.p):
            if y not in a:
                pairs += 1
    return pairs


def naive_min_ap_cover(a):
    """(length, d, start) of the shortest AP cover: ties go to the smallest d,
    then to the smallest start of the shortest interval cover of d^(-1)*A."""
    p = a.p
    best = None
    for d in range(1, (p - 1) // 2 + 1) if p > 2 else (1,):
        img = [e * pow(d, -1, p) % p for e in a]
        for length in range(1, p + 1):
            starts = [s for s in range(p) if all((e - s) % p < length for e in img)]
            if starts:
                break
        if best is None or length < best[0]:
            best = (length, d, d * starts[0] % p)
    return best


def ap_cover_scan(elems, p):
    """Yield (d, length, start) for d = 1, 2, ..., (p-1)/2 (just d = 1 when
    p = 2): the shortest AP of difference d containing the nonempty set of
    sorted residues `elems`.

    The scalar form of the kernel's AP-cover scan (`modmath.ap_covers`), one
    set and one difference at a time: the shortest interval cover of the
    sorted image d^(-1)*A is the complement of the widest gap between
    cyclically consecutive members, and ties go to the smallest start.
    """
    for d in range(1, max(2, (p + 1) // 2)):
        if d == 1:
            img = elems
        else:
            inv = pow(d, -1, p)
            img = sorted(e * inv % p for e in elems)
        gap, start, prev = img[0] + p - img[-1] - 1, img[0], img[0]
        for x in img:
            if x - prev - 1 > gap:
                gap, start = x - prev - 1, x
            prev = x
        yield d, p - gap, d * start % p


def scalar_min_ap_cover(a):
    """(length, d, start) of the shortest AP cover by `ap_cover_scan`, with
    `naive_min_ap_cover`'s tie rules; fast enough for p in the tens of
    thousands."""
    d, length, start = min(ap_cover_scan(a.elements(), a.p), key=lambda c: (c[1], c[0]))
    return length, d, start


def naive_min_cover_len(a):
    p = a.p
    best = p
    for start in range(p):
        for length in range(1, p + 1):
            if all(((e - start) % p) < length for e in a):
                best = min(best, length)
                break
    return best


# ---------------------------------------------------------------------------
# Frozen spec examples


def test_sumset_examples():
    a = ZpSet(11, [4, 5, 6, 7])
    assert sumset(a, a) == ZpSet(11, [8, 9, 10, 0, 1, 2, 3])  # oracle: double loop
    assert sumset(a, ZpSet(11, [0])) == a
    assert sumset(ZpSet(7, [2]), ZpSet(7, [3])) == ZpSet(7, [5])


def test_sumset_modulus_mismatch():
    with pytest.raises(ZpSetError, match="incompatible moduli"):
        sumset(ZpSet(7, [1]), ZpSet(11, [1]))


def test_hfold_examples():
    a = ZpSet(11, [4, 5, 6, 7])
    assert hfold(a, 2) == naive_hfold(a, 2)
    assert hfold(ZpSet(23, [1]), 3) == ZpSet(23, [3])
    b = ZpSet.interval(23, 15, 6)
    assert hfold(b, 3) == ZpSet(23, [22] + list(range(15)))  # [45,60] mod 23, wrapped
    assert hfold(b, 3) == naive_hfold(b, 3)
    with pytest.raises(ZpSetError, match="h must be positive"):
        hfold(a, 0)


def test_dilate_examples():
    assert dilate(ZpSet(11, [3, 4, 5]), 8) == ZpSet(11, [2, 7, 10])
    a = ZpSet(11, [4, 5, 6, 7])
    assert dilate(a, 1) == a
    assert dilate(a, 10) == a  # symmetric interval fixed by negation
    with pytest.raises(ZpSetError, match="dilation by zero"):
        dilate(a, 0)


def test_is_kl_sumfree_examples():
    assert is_kl_sumfree(ZpSet(11, [4, 5, 6, 7]), 2, 1)
    assert not is_kl_sumfree(ZpSet(11, [0]), 2, 1)
    assert is_kl_sumfree(ZpSet.interval(23, 15, 6), 3, 1)
    with pytest.raises(ZpSetError, match="require k > l"):
        is_kl_sumfree(ZpSet(11, [1]), 1, 1)


def test_ed_and_is_ap_examples():
    a = ZpSet(11, [4, 5, 6, 7])
    prof = ed_profile(a)
    assert prof[1] == 2
    assert is_ap(a) == [1]
    assert is_ap(ZpSet(11, range(1, 11))) == [1, 2, 3, 4, 5]  # F_p minus a point
    assert ed_count(ZpSet(11, [4, 6, 7]), 1) == 4  # pairs (4,3),(4,5),(6,5),(7,8)


def test_is_ap_size_conventions():
    p = 11
    assert is_ap(ZpSet(p)) == []
    assert is_ap(ZpSet(p, [3])) == [1, 2, 3, 4, 5]
    assert is_ap(ZpSet.interval(p, 0, p)) == [1, 2, 3, 4, 5]


def test_cover_examples():
    mc = min_ap_cover(ZpSet(11, [2, 7, 10]))
    assert mc.length == 3
    assert ZpSet(11, [2, 7, 10]).issubset(mc.as_set())
    with pytest.raises(ZpSetError, match="empty set has no cover"):
        min_ap_cover(ZpSet(13))


def test_holes_examples():
    assert holes(ZpSet(13, [0, 1, 2]), ApCover(13, 0, 1, 3)) == []
    a = ZpSet(23, [10] + list(range(12, 20)) + [21])
    assert holes(a, ApCover(23, 10, 1, 12)) == [1, 1]
    b = ZpSet(23, [10, 11] + list(range(14, 21)))
    assert holes(b, ApCover(23, 10, 1, 11)) == [2]
    with pytest.raises(ZpSetError, match="cover does not contain"):
        holes(a, ApCover(23, 10, 1, 5))


def test_find_kl_sums_examples():
    assert find_kl_sums(ZpSet.interval(23, 15, 6), 3, 1, 4) == []
    assert find_kl_sums(ZpSet(11, [0]), 2, 1, 1) == [((0, 0), (0,))]
    # the quoted family 3(3m+2) = (2m+1)+(2m+2) at p = 5m+3, m = 8
    sols = find_kl_sums(ZpSet.interval(43, 17, 10), 3, 2, 3)
    assert ((26, 26, 26), (17, 18)) in sols
    assert sols == sorted(sols)


def test_find_kl_sums_against_direct_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([7, 11, 13])
        c = ZpSet(p, rng.sample(range(p), rng.randrange(1, 7)))
        k, l = rng.choice([(2, 1), (3, 1), (3, 2)])
        md = rng.randrange(1, 5)
        got = find_kl_sums(c, k, l, md)
        want = set()
        for left in combinations_with_replacement(sorted(c), k):
            for right in combinations_with_replacement(sorted(c), l):
                if sum(left) % p == sum(right) % p and len(set(left) | set(right)) <= md:
                    want.add((left, right))
        assert set(got) == want


def test_literals():
    b = ZpSet.interval(23, 15, 6)
    assert format_zpset(b) == "p=23;[15,20]"
    assert parse_zpset("p=23;[15,20]") == b
    assert parse_zpset("p=11;{4,5,6,7}") == ZpSet(11, [4, 5, 6, 7])
    assert parse_zpset("p=11;{}") == ZpSet(11)
    assert parse_zpset(format_zpset(ZpSet(11, [1, 4, 6]))) == ZpSet(11, [1, 4, 6])
    with pytest.raises(ZpSetError):
        parse_zpset("p=11;{3,3}")
    with pytest.raises(ZpSetError):
        parse_zpset("p=11;{11}")


def test_residues_must_be_integers():
    # A float is refused, never truncated (2.0 too), and a string is refused
    # with the set's own error; numpy integers and bools are integers.
    for bad in (1.5, 2.0, np.float64(2), np.array(2.5), "3", None):
        with pytest.raises(ZpSetError, match="is not an integer"):
            ZpSet(7, [1, bad])
    assert ZpSet(7, [np.int64(3), np.uint8(1), True]) == ZpSet(7, [1, 3])


@pytest.mark.parametrize("text, field", [
    ("p=7;[1,2,3]", "interval bounds"),
    ("p=7;[1]", "interval bounds"),
    ("p=7;[a,3]", "interval bounds"),
    ("p=7;{1,x}", "set elements"),
    ("p=7;{1,,2}", "set elements"),
])
def test_parse_zpset_refuses_malformed_numbers(text, field):
    # A wrong count of interval bounds or a token that is not an integer is
    # a ZpSetError naming the field and the literal, not a bare ValueError.
    with pytest.raises(ZpSetError) as exc:
        parse_zpset(text)
    assert field in str(exc.value) and repr(text) in str(exc.value)


def interval_cover_format(a):
    """`format_zpset` with the interval test read from the d = 1 cover of
    the scalar scan `ap_cover_scan`."""
    p = a.p
    if a.is_full():
        return f"p={p};[0,{p - 1}]"
    if len(a) >= 2:
        _, length, start = next(ap_cover_scan(a.elements(), p))
        if length == len(a):
            return f"p={p};[{start},{(start + length - 1) % p}]"
    return f"p={p};{{{','.join(map(str, a))}}}"


def test_format_matches_interval_cover_on_every_small_set():
    for p in primes_in(2, 13):
        for mask in range(1 << p):
            a = ZpSet.from_mask(p, mask)
            text = format_zpset(a)
            assert text == interval_cover_format(a)
            assert parse_zpset(text) == a


# ---------------------------------------------------------------------------
# Invariants on random instances


def test_oracle_equivalence_sumset():
    rng = random.Random(2024)
    for p in primes_in(7, 53):
        for _ in range(1000):
            a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p + 1)))
            b = ZpSet(p, rng.sample(range(p), rng.randrange(1, p + 1)))
            assert sumset(a, b) == naive_sumset(a, b)


def test_cauchy_davenport_random():
    rng = random.Random(7)
    for p in primes_in(7, 31):
        for _ in range(400):
            a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
            b = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
            assert len(sumset(a, b)) >= min(p, len(a) + len(b) - 1)


def test_vosper_equality_shares_difference():
    rng = random.Random(11)
    hits = 0
    for p in primes_in(7, 31):
        for _ in range(2000):
            a = ZpSet(p, rng.sample(range(p), rng.randrange(2, p - 1)))
            b = ZpSet(p, rng.sample(range(p), rng.randrange(2, p - 1)))
            s = sumset(a, b)
            if len(s) <= p - 2 and len(s) == len(a) + len(b) - 1:
                hits += 1
                assert set(is_ap(a)) & set(is_ap(b))
    assert hits > 0


def test_dilation_equivariance_and_invariance():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice([11, 13, 17])
        a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
        c = rng.randrange(1, p)
        h = rng.choice([2, 3])
        assert hfold(dilate(a, c), h) == dilate(hfold(a, h), c)
        k, l = rng.choice([(2, 1), (3, 2)])
        assert is_kl_sumfree(a, k, l) == is_kl_sumfree(dilate(a, c), k, l)


def test_ed_profile_under_dilation():
    rng = random.Random(17)
    for _ in range(50):
        p = rng.choice([11, 13, 17])
        a = ZpSet(p, rng.sample(range(p), rng.randrange(2, p - 1)))
        c = rng.randrange(1, p)
        assert ed_profile(dilate(a, c)).multiset() == ed_profile(a).multiset()
        for d in range(1, (p - 1) // 2 + 1):
            cd = c * d % p
            folded = min(cd, p - cd)
            assert ed_count(dilate(a, c), folded) == ed_count(a, d)


def test_ed_against_pair_counting():
    rng = random.Random(19)
    for _ in range(40):
        p = rng.choice([11, 13])
        a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
        for d in range(1, (p - 1) // 2 + 1):
            assert ed_count(a, d) == naive_ed(a, d)


def test_ap_difference_uniqueness_small():
    for p in primes_in(5, 13):
        for d in range(1, (p - 1) // 2 + 1):
            for start in range(p):
                for length in range(2, p - 1):
                    a = ZpSet(p, [(start + i * d) % p for i in range(length)])
                    want = [d] if length <= p - 2 else list(range(1, (p - 1) // 2 + 1))
                    assert is_ap(a) == want


def test_one_hole_interval_not_ap_small():
    for p in primes_in(7, 13):
        for start in range(p):
            for length in range(4, p - 2):
                cells = [(start + i) % p for i in range(length)]
                for x in cells[1:-1]:
                    assert is_ap(ZpSet(p, [e for e in cells if e != x])) == []


def test_min_cover_against_oracle():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([7, 11, 13])
        a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p + 1)))
        apc = min_ap_cover(a)
        assert apc.length <= naive_min_cover_len(a)
        assert a.issubset(apc.as_set())
        assert 1 <= apc.diff <= max(1, (p - 1) // 2)


@given(st.sampled_from(primes_in(2, 19)), st.data())
def test_min_ap_cover_tie_rules_and_early_exit(p, data):
    # One gap scan in modmath serves min_ap_cover, and the covering lab's
    # batched cover test reads the same gap step; both must agree with the
    # brute-force cover, tie rules included.
    size = data.draw(st.integers(1, p))
    sets = data.draw(st.lists(st.sets(st.integers(0, p - 1), min_size=size, max_size=size),
                              min_size=1, max_size=4))
    lengths = []
    for elems in sets:
        a = ZpSet(p, elems)
        cover = min_ap_cover(a)
        assert (cover.length, cover.diff, cover.start) == naive_min_ap_cover(a)
        assert a.issubset(cover.as_set())
        lengths.append(naive_min_ap_cover(a)[0])
    # Rows in any order; target = doubling - size + 1 in [1, p].
    residues = np.array([data.draw(st.permutations(sorted(elems))) for elems in sets])
    targets = data.draw(st.lists(st.integers(1, p), min_size=len(sets), max_size=len(sets)))
    doubling = np.array([t + size - 1 for t in targets])
    want = [length > t for length, t in zip(lengths, targets)]
    assert covering._uncovered(residues, doubling, p).tolist() == want


# Every prime up to the exhaustive scan's limit, and two above the uint64
# word limit, whose masks are object words.
VERDICT_PRIMES = primes_in(2, 31) + [67, 101]


def check_batched_verdicts(p, sets, as_words=False, budget=modmath._CHUNK_BYTES):
    """covering.covering_verdicts on one batch of equal-size sets against the
    scalar route (a sumset and the scalar scan per set) and the brute-force
    cover, row by row and in input order, and against its one-row call
    covering.covering_verdict and min_ap_cover.  A budget of 1 byte takes
    one difference per block, so ties across blocks are tested too."""
    masks = [ZpSet(p, elems).mask for elems in sets]
    with mock.patch.object(modmath, "_CHUNK_BYTES", budget):
        verdicts = covering.covering_verdicts(p, modmath.word_array(p, masks) if as_words else masks)
    assert len(verdicts) == len(sets)
    for mask, v in zip(masks, verdicts):
        a = ZpSet.from_mask(p, mask)
        doubling = len(sumset(a, a))
        target = doubling - len(a) + 1
        length, d, start = scalar_min_ap_cover(a)
        assert (length, d, start) == naive_min_ap_cover(a)
        cover = ApCover(p, start, d, length)
        assert min_ap_cover(a) == cover
        covered = cover.length <= target
        assert (v.set, v.doubling, v.target_len, v.achieved_len, v.covered, v.witness) == (
            a, doubling, target, cover.length, covered, cover if covered else None)
        assert covering.covering_verdict(a) == v


@pytest.mark.parametrize("p", VERDICT_PRIMES)
def test_covering_verdicts_at_sizes_1_and_p(p):
    check_batched_verdicts(p, [[x] for x in range(p)])
    check_batched_verdicts(p, [range(p)], as_words=True)


@pytest.mark.parametrize("p", VERDICT_PRIMES)
@settings(max_examples=8)
@given(data=st.data())
def test_covering_verdicts_match_scalar_route(p, data):
    # The brute-force cover takes up to 0.6 s per set at p = 101, so above
    # the word limit a batch holds one set (the test above batches 67 and
    # 101 singletons).
    size = data.draw(st.integers(1, p))
    sets = data.draw(st.lists(st.sets(st.integers(0, p - 1), min_size=size, max_size=size),
                              min_size=1, max_size=5 if p <= modmath.WORD_P_LIMIT else 1))
    check_batched_verdicts(p, sets, as_words=data.draw(st.booleans()),
                           budget=data.draw(st.sampled_from([1, modmath._CHUNK_BYTES])))


def test_covering_verdicts_refuse_empty_sets():
    assert covering.covering_verdicts(13, []) == []
    with pytest.raises(ZpSetError, match="nonempty"):
        covering.covering_verdicts(13, [0, 0])


@pytest.mark.parametrize("p", [46349, 65537])
def test_covers_match_scalar_scan_past_int32_products(p):
    # (p-1)^2 >= 2^31 here, so a residue times an inverse overflows int32:
    # the scan must take int64 products.  The APs of difference (p-1)/2
    # through p-1 need the largest products; the random sets are the first
    # draws of a seeded stream.
    rng = random.Random(1)
    d = (p - 1) // 2
    sets = [[(p - 1 + i * d) % p for i in range(size)] for size in range(2, 6)]
    sets += [rng.sample(range(p), rng.randrange(2, 6)) for _ in range(8)]
    for elems in sets:
        a = ZpSet(p, elems)
        length, diff, start = scalar_min_ap_cover(a)
        cover = ApCover(p, start, diff, length)
        assert min_ap_cover(a) == cover
        doubling = len(sumset(a, a))
        covered = length <= doubling - len(a) + 1
        v = covering.covering_verdict(a)
        assert (v.doubling, v.achieved_len, v.covered, v.witness) == (
            doubling, length, covered, cover if covered else None)

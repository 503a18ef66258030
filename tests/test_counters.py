"""Work counters repeat exactly: the same call made twice reports the same
node and labelled counts, the same scan counters and violations, and the
same label and witness.  A counter that drifts between runs cannot explain a
change in speed, so this holds for every input drawn here."""

from fractions import Fraction

from hypothesis import given, strategies as st

from klsf.classify import classify
from klsf.constructions import gen_type, reference_specs
from klsf.covering import tau_scan
from klsf.modmath import primes_in
from klsf.search import enumerate_max, enumerate_second_level
from klsf.vecset import Params

DENSITIES = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))


def in_window(n, p_max):
    """Every Params (k, l, p, n) with k + l <= 5 and p <= p_max that the
    extremal theorems (and so the second-level search and classify) cover."""
    return [pr for k, l in ((2, 1), (3, 1), (3, 2), (4, 1)) for p in primes_in(5, p_max)
            for pr in [Params(k, l, p, n)] if pr.m >= 1 and pr.lambda_in_range()]


@given(st.sampled_from(in_window(1, 41)))
def test_search_counters_repeat(params):
    for run in (enumerate_max, enumerate_second_level):
        first, second = run(params), run(params)
        assert (first.node_count, first.labeled_count) == (second.node_count, second.labeled_count)
        prunes = ("prunes_collision", "prunes_size", "prunes_ratio")
        assert [getattr(first, c) for c in prunes] == [getattr(second, c) for c in prunes]
        assert first.prunes_ratio > 0 or first.node_count <= 2
        assert first.to_dict() == second.to_dict()


def scan_counters(scan):
    return (scan.sets_examined, scan.hypothesis_hits, scan.tau_feasible,
            [(v.verdict.set.mask, v.tau_star) for v in scan.violations])


@given(st.sampled_from(primes_in(5, 19)), st.sampled_from(DENSITIES))
def test_exhaustive_scan_counters_repeat(p, c):
    assert scan_counters(tau_scan(p, c)) == scan_counters(tau_scan(p, c))


@given(st.sampled_from(primes_in(5, 101)), st.sampled_from(DENSITIES), st.integers(0, 2**32 - 1))
def test_sampled_scan_counters_repeat(p, c, seed):
    def run():
        return tau_scan(p, c, mode="sampled", seed=seed, trials=500)

    assert scan_counters(run()) == scan_counters(run())


@st.composite
def structure_spec(draw):
    """A non-cuboid reference spec in Z_p or F_p^2, p <= 29."""
    n = draw(st.sampled_from((1, 2)))
    specs = [spec for pr in in_window(n, 29) for kind, _, spec in reference_specs(pr)
             if kind != "cuboid"]
    return draw(st.sampled_from(specs))


@given(structure_spec())
def test_generate_and_classify_repeat(spec):
    pr = spec.params

    def run():
        return classify(gen_type(spec), pr.k, pr.l).to_dict()

    first, second = run(), run()
    assert (first["label"], first["witness"]) == (second["label"], second["witness"])

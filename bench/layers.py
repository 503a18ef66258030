"""Per-module metrics derived from the spans of one traced pass.

Work counters come from the values the traced entry points return (node
counts, sets examined, cells emitted); times come from span durations.
`<module>.calls` and `<module>.self_s` cover every traced public function
defined in that module.  Rates divide by the inclusive time of the module's
entry-point spans, so they read as the throughput a caller of that entry
point sees.
"""

from __future__ import annotations

import numpy as np

from spans import TRACED_MODULES, Recorder, self_times, under

# Counters that must repeat exactly from one pass to the next.
DETERMINISTIC = (
    "search.nodes", "search.orbits", "covering.sets_examined", "covering.hypothesis_hits",
    "covering.violation_orbits", "vecset.decompose_calls", "constructions.cells_emitted",
    "vecset.sumset_cells",
)


def _search(rec: Recorder, idx: int, args, r) -> None:
    rec.add("search.nodes", r.node_count)
    rec.add("search.orbits", len(r.extremal_orbits) + len(r.second_level_orbits))
    rec.add("search.labeled", r.labeled_count)


def _tau_scan(rec: Recorder, idx: int, args, scan) -> None:
    rec.add("covering.sets_examined", scan.sets_examined)
    rec.add("covering.hypothesis_hits", scan.hypothesis_hits)
    rec.add("covering.violation_orbits", len(scan.violations))


def _vsumset(rec: Recorder, idx: int, args, out) -> None:
    rec.add("vecset.sumset_cells", args[0].p ** args[0].n)


def _emitted(rec: Recorder, idx: int, args, out) -> None:
    rec.add("constructions.cells_emitted", len(out))


def _spectrum(rec: Recorder, idx: int, args, out) -> None:
    rec.add("spectral.cells", args[0].p ** args[0].n)


def _classify(rec: Recorder, idx: int, args, out) -> None:
    rec.attrs[idx] = (args[0].p, args[0].n)


EXTRACTORS = {
    "search.enumerate_max": _search,
    "search.enumerate_second_level": _search,
    "covering.tau_scan": _tau_scan,
    "vecset.vsumset": _vsumset,
    "constructions.gen_type": _emitted,
    "constructions.gen_cuboid": _emitted,
    "spectral.spectrum": _spectrum,
    "classify.classify": _classify,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    names = rec.arrays()[0]
    dur, self_ = self_times(rec)
    prefix = np.array([n.split(".")[0] for n in rec.names] or [""])
    module = prefix[names] if len(names) else np.array([], dtype=prefix.dtype)

    def spans(name: str) -> np.ndarray:
        return names == rec.ids.get(name, -1)

    def inclusive(*fns: str) -> float:
        return float(sum(dur[spans(f)].sum() for f in fns))

    c = rec.counters.get
    out: dict[str, float] = {}
    for mod in TRACED_MODULES:
        sel = module == mod
        out[f"{mod}.calls"] = int(sel.sum())
        out[f"{mod}.self_s"] = float(self_[sel].sum())

    entry = ("search.enumerate_max", "search.enumerate_second_level")
    out["search.nodes"] = c("search.nodes", 0)
    out["search.nodes_per_s"] = _ratio(out["search.nodes"], inclusive(*entry))
    out["search.orbits"] = c("search.orbits", 0)
    out["search.labeled_per_orbit"] = _ratio(c("search.labeled", 0), out["search.orbits"])
    out["search.canonical_form_calls"] = int(spans("search.canonical_form").sum())
    out["search.canonical_form_s"] = inclusive("search.canonical_form")

    out["covering.sets_examined"] = c("covering.sets_examined", 0)
    out["covering.sets_per_s"] = _ratio(out["covering.sets_examined"], inclusive("covering.tau_scan"))
    out["covering.hypothesis_hits"] = c("covering.hypothesis_hits", 0)
    out["covering.hit_ratio"] = _ratio(out["covering.hypothesis_hits"], out["covering.sets_examined"])
    out["covering.violation_orbits"] = c("covering.violation_orbits", 0)

    cls = np.flatnonzero(spans("classify.classify"))
    decompose = spans("vecset.decompose")
    in_classify = int((decompose & under(rec, "classify.classify")).sum())
    lines = sum(rec.attrs[i][0] + 1 for i in cls if rec.attrs.get(i, (0, 1))[1] == 2)
    out["classify.decompose_per_call"] = _ratio(in_classify, len(cls))
    out["classify.decompose_per_line"] = _ratio(in_classify, lines)
    out["classify.p_exponent"] = _p_exponent(rec, cls, dur)

    out["vecset.decompose_calls"] = int(decompose.sum())
    out["vecset.decompose_s"] = inclusive("vecset.decompose")
    out["vecset.sumset_calls"] = int(spans("vecset.vsumset").sum())
    out["vecset.sumset_s"] = inclusive("vecset.vsumset")
    out["vecset.sumset_cells"] = c("vecset.sumset_cells", 0)
    out["vecset.sym_group_s"] = inclusive("vecset.sym_group")

    out["constructions.cells_emitted"] = c("constructions.cells_emitted", 0)
    out["constructions.nontriviality_s"] = inclusive("constructions.nontriviality_check")

    out["zpset.sumset_calls"] = int(spans("zpset.sumset").sum())
    out["zpset.dilate_calls"] = int(spans("zpset.dilate").sum())
    out["zpset.ap_cover_s"] = inclusive("zpset.min_ap_cover")

    out["spectral.cells"] = c("spectral.cells", 0)
    out["self_s_total"] = float(self_.sum())
    out["self_s_min"] = float(self_.min()) if len(self_) else 0.0
    return out


# Counters that the jobs' own outputs also carry: a traced pass must count
# exactly what an untraced pass returned, or the tracer lost or doubled calls.
FROM_OUTPUTS = ("search.nodes", "search.orbits", "search.labeled", "covering.sets_examined",
                "covering.hypothesis_hits", "covering.violation_orbits")


def counters_from_outputs(outputs) -> dict[str, float]:
    """FROM_OUTPUTS summed over the search results and scans that jobs returned."""
    from klsf import SearchResult, TauScan

    rec = Recorder()
    for out in outputs:
        if isinstance(out, SearchResult):
            _search(rec, -1, (), out)
        elif isinstance(out, TauScan):
            _tau_scan(rec, -1, (), out)
    return {key: rec.counters.get(key, 0) for key in FROM_OUTPUTS}


def _p_exponent(rec: Recorder, cls: np.ndarray, dur: np.ndarray) -> float:
    """Least-squares slope of log(classify time) against log(p), 2-D sets only."""
    pts = [(rec.attrs[i][0], dur[i]) for i in cls if rec.attrs.get(i, (0, 0))[1] == 2]
    if len({p for p, _ in pts}) < 2:
        return 0.0
    x = np.log([p for p, _ in pts])
    y = np.log([t for _, t in pts])
    return float(np.polyfit(x, y, 1)[0])

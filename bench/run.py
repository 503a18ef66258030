"""klsf benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src and
nowhere else.  Set-up (import klsf, build the seeded inputs, one warm-up
call) is timed in this process and, in untraced runs, in fresh interpreters
started between passes too; the median is reported.  Then passes over the
workload's fixed job list run until `--seconds` have elapsed (and at least
MIN_PASSES passes and MIN_SAMPLES job latencies exist).  Every output is
checked by an independent oracle outside the timed region, and must repeat
exactly on every pass.

Times are reported in reference seconds.  The shared host runs this process
up to twice as slowly for seconds to minutes at a time, and that swing moves
every timing of a run alike.  A short fixed reference loop (`reference_work`:
interpreter work and small numpy calls, the two kinds of work klsf does)
is timed between jobs, after the first job that ends REF_EVERY seconds or
more after the last timing and after the last job, outside the job latencies,
and measures how fast the host runs this process at that moment.
Each pass's timings are scaled by REF_SECONDS over the median reference time
within that pass; set-up is scaled by REF_REPS reference timings made right
after it.  A change to klsf moves the scaled figures exactly as it moves the
raw ones, since the reference loop calls nothing in klsf.  The raw seconds
and the speed factor are printed in the human-readable lines.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes, derives the per-module metrics from
the spans of the traced passes only, and writes those spans to bench/out/.
Human-readable lines go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("enumerate", "classify2d", "covering", "kernels")
SETUP_REPEATS = 9       # this process plus eight fresh interpreters
REF_EVERY = 0.05        # seconds of jobs between two reference timings in a pass
REF_REPS = 16           # reference timings that scale a set-up
REF_LOOPS = 6_000       # interpreter iterations of one reference loop
REF_ARRAY_LOOPS = 80    # small-array numpy iterations of one reference loop
REF_SECONDS = 0.0025    # scale of the reported times: one reference loop counts as this long
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SAMPLES = 100
MAX_RUN_FACTOR = 3      # never measure longer than this many times --seconds
SHOWN_FAILURES = 10
SELF_TIME_SLACK = 1e-9  # rounding of perf_counter differences, in seconds


def reference_work() -> int:
    """A fixed loop: integer arithmetic, a list and a dict, then small numpy arrays."""
    import numpy as np  # here, so that set-up still pays for importing it with klsf

    acc, seen, table = 0, [], {}
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        if i & 15 == 0:
            seen.append(acc)
        table[i & 255] = acc
    base = np.arange(64)
    for i in range(REF_ARRAY_LOOPS):
        acc += len(np.flatnonzero((np.roll(base, i & 63) + base) % 61 > 30))
    return acc + len(seen) + len(table)


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def speed(ref: list[float]) -> float:
    """How much slower than nominal the host ran, from reference timings."""
    return statistics.median(ref) / REF_SECONDS


def setup_speed() -> float:
    return speed([reference_time() for _ in range(REF_REPS)])


def setup(workload: str, seed: int):
    """Import klsf, build the inputs and make one warm-up call.

    Returns (workload, seconds, problem).  problem is None when the warm-up
    job ran and its oracle accepted the output; otherwise it says why not,
    and the run goes on with the warm-up counted as one failed item.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import klsf

    if Path(klsf.__file__).resolve().parent != (SRC / "klsf").resolve():
        raise ImportError(f"klsf imported from {klsf.__file__}, not from {SRC}")
    import workloads

    wl = workloads.BUILDERS[workload](seed)
    try:
        warm = wl.warmup.call()
    except Exception as exc:  # a failing item is counted, never fatal
        warm, problem = None, f"warm-up {wl.warmup.name} raised {type(exc).__name__}: {exc}"
    else:
        problem = None
    elapsed = time.perf_counter() - t0
    if problem is None:
        try:
            rejected = wl.warmup.check(warm)
        except Exception as exc:
            rejected = f"oracle raised {type(exc).__name__}: {exc}"
        if rejected:
            problem = f"warm-up {wl.warmup.name} output rejected: {rejected}"
    return wl, elapsed, problem


def fresh_setup_time(workload: str, seed: int) -> tuple[float, float] | None:
    """(raw, scaled) set-up time in a fresh interpreter; None if the child or its warm-up failed."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--setup-only"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            return None
        raw, scaled = (float(x) for x in done.stdout.split()[-2:])
        return raw, scaled
    except (subprocess.TimeoutExpired, ValueError):
        return None


@dataclass
class Pass:
    traced: bool
    ref: list[float] = field(default_factory=list)  # reference timings between its jobs
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)   # kept for the first pass only
    digests: list = field(default_factory=list)   # what later passes keep instead
    errors: dict[int, str] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    recorder: object = None


def run_pass(jobs, first: bool, tracer=None) -> Pass:
    ps = Pass(tracer is not None)
    with tracer or contextlib.nullcontext() as rec:
        last_ref = time.perf_counter()
        for i, job in enumerate(jobs):
            s = time.perf_counter()
            try:
                out = job.call()
            except Exception as exc:  # a failing item is counted, never fatal
                out = None
                ps.errors[i] = f"{job.name} raised {type(exc).__name__}: {exc}"
            e = time.perf_counter()
            ps.latencies.append(e - s)
            ps.outputs.append(out)
            if e - last_ref >= REF_EVERY or i == len(jobs) - 1:
                ps.ref.append(reference_time())
                last_ref = time.perf_counter()
        ps.wall = sum(ps.latencies)
    if not first:
        ps.digests = [_digest(job, out) for job, out in zip(jobs, ps.outputs)]
        ps.outputs = []
    if rec is not None:
        import layers

        ps.layers = layers.layer_metrics(rec)
        ps.recorder = rec  # written out once the run ends
    return ps


def measure(wl, seconds: int, trace: bool, after_pass: Callable[[], None]) -> list[Pass]:
    tracer = None
    if trace:
        import layers
        import spans

        tracer = spans.Tracer(layers.EXTRACTORS)
    passes: list[Pass] = []
    # The harness's own inputs and jobs stay alive all run; keep them out of
    # the collector's way so that a pass is charged only for its own garbage.
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()

    def enough() -> bool:
        elapsed = time.perf_counter() - t0
        if elapsed >= MAX_RUN_FACTOR * seconds:
            return True
        plain = [p for p in passes if not p.traced]
        if trace and sum(p.traced for p in passes) < MIN_TRACED_PASSES:
            return False
        return (elapsed >= seconds and len(plain) >= (2 if trace else MIN_PASSES)
                and sum(len(p.latencies) for p in plain) >= (0 if trace else MIN_SAMPLES))

    while not enough():
        traced_turn = trace and len(passes) % 2 == 1
        gc.collect()
        passes.append(run_pass(wl.jobs, not passes, tracer if traced_turn else None))
        after_pass()
    return passes


def _digest(job, out):
    try:
        return job.digest(out)
    except Exception as exc:  # an output without the expected shape never matches
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_outputs(wl, passes: list[Pass]) -> list[str]:
    """Oracle on every output of the first pass; later passes must repeat its digest."""
    failures: list[str] = []
    first = passes[0]
    for i, job in enumerate(wl.jobs):
        if i in first.errors:
            failures.append(first.errors[i])
            accepted = False
        else:
            try:
                problem = job.check(first.outputs[i])
            except Exception as exc:  # an output the oracle cannot read is rejected
                problem = f"oracle raised {type(exc).__name__}: {exc}"
            accepted = problem is None
            if problem:
                failures.append(f"{job.name}: {problem}")
        reference = _digest(job, first.outputs[i])
        for n, ps in enumerate(passes[1:], 1):
            if i in ps.errors:
                failures.append(ps.errors[i])
            elif not accepted:
                failures.append(f"{job.name}: pass {n} repeats a rejected output")
            elif ps.digests[i] != reference:
                failures.append(f"{job.name}: output of pass {n} differs from pass 0")
    for cross in wl.cross_checks:
        try:
            problem = cross()
        except Exception as exc:
            problem = f"cross-check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
    return failures


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float, attempted: int, failed: int):
    """Medians over the untraced passes, each pass scaled by its own speed factor."""
    plain = [p for p in passes if not p.traced]
    item_ms = [1e3 * lat / speed(p.ref) for p in plain for lat in p.latencies]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall / speed(p.ref) for p in plain),
        "item_p50_ms": statistics.median(item_ms),
        "item_p90_ms": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
        "pass_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Median of each per-module metric over traced passes, plus consistency problems."""
    import layers

    traced = [p for p in passes if p.traced]
    problems = []
    first = traced[0].layers
    for n, ps in enumerate(traced[1:], 1):
        for key in layers.DETERMINISTIC:
            if ps.layers[key] != first[key]:
                problems.append(f"counter {key} differs: traced pass 0 {first[key]}, pass {n} {ps.layers[key]}")
    # Pass 0 is untraced and keeps its outputs: the counters that outputs
    # carry must read the same through the spans of every traced pass.
    untraced = layers.counters_from_outputs(passes[0].outputs)
    for n, ps in enumerate(traced):
        traced_counts = {key: ps.recorder.counters.get(key, 0) for key in untraced}
        if traced_counts != untraced:
            problems.append(f"traced pass {n}: counters {traced_counts} != outputs {untraced}")
        if ps.layers["self_s_min"] < -SELF_TIME_SLACK:
            problems.append(f"traced pass {n}: a span has negative self time {ps.layers['self_s_min']}")
        if ps.layers["self_s_total"] > ps.wall:
            problems.append(f"traced pass {n}: self times {ps.layers['self_s_total']} exceed wall {ps.wall}")
    out = {key: statistics.median(p.layers[key] for p in traced) for key in first}
    # Passes alternate untraced (even) and traced (odd).  Each traced pass is
    # paired with the untraced pass after it, which leaves out pass 0, the
    # first and slowest pass; both are scaled by their own reference timings.
    pairs = [(t.wall / speed(t.ref)) / (u.wall / speed(u.ref)) for t, u in zip(passes[1::2], passes[2::2])]
    out["trace.overhead_pct"] = 100.0 * (statistics.median(pairs) - 1.0)
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        wl, setup_first, warm_problem = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import klsf from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(f"{setup_first!r} {setup_first / setup_speed()!r}")
        return 1 if warm_problem else 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Each set-up makes one warm-up call, so each counts as one item.
    setups = 1 if args.trace else SETUP_REPEATS
    setup_failures = [warm_problem] if warm_problem else []
    fresh: list[tuple[float, float] | None] = []

    def fresh_setup() -> None:
        # One between passes, so that a slow spell of the host that spans a
        # few seconds holds only some of the samples.
        if len(fresh) < setups - 1:
            fresh.append(fresh_setup_time(args.workload, args.seed))

    first_speed = setup_speed()
    passes = measure(wl, args.seconds, bool(args.trace), fresh_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(fresh) < setups - 1:
        fresh_setup()
    setup_times = [(setup_first, setup_first / first_speed)] + [t for t in fresh if t is not None]
    setup_failures += ["set-up in a fresh interpreter failed"] * fresh.count(None)

    failures = setup_failures + check_outputs(wl, passes)
    attempted = setups + len(wl.cross_checks) + sum(len(p.latencies) for p in passes)
    problems = []
    if args.trace:
        import spans

        values, problems = per_layer(passes)
        declared = spec["per_layer"]
        for n, ps in enumerate(p for p in passes if p.traced):
            spans.save(OUT / f"{args.workload}-seed{args.seed}-pass{n}.npz", ps.recorder)
    else:
        values = end_to_end(passes, statistics.median(s for _, s in setup_times), rss_mb, attempted,
                            len(failures))
        declared = spec["end_to_end"]
        plain = [p for p in passes if not p.traced]
        print(f"# raw seconds: set-up median {statistics.median(r for r, _ in setup_times):.6g}, "
              f"pass median {statistics.median(p.wall for p in plain):.6g}; host speed factor "
              f"{statistics.median(speed(p.ref) for p in plain):.4g} "
              f"(1 = a reference loop in {REF_SECONDS} s)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for msg in (failures + problems)[:SHOWN_FAILURES]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} items, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point binding all modules behind stable JSON/CSV output.

Exit codes:
    0  success
    1  parameter error (bad flags, out-of-window parameters, size limits)
    2  failed assertion-style check (a generator output failing its own
       verifier, or a reproduced acceptance criterion failing)
    3  completed with a reportable mathematical finding (covering violations,
       orbits the classifier cannot name); findings are data, not failures
  141  the reader of stdout closed the pipe early (`klsf ... | head`); the
       rest of the output is dropped without a message, and the code is the
       128 + SIGPIPE a shell reports for a process that SIGPIPE ended

`klsf construct` builds its spec with `constructions.make_spec`, from the
flags or from each --grid item.  A kind takes the fields its STRUCTURES row
reads (cuboid --j, type 1 --a, types 2 and 4 --vbasis, type 5 and rz --s and
--pset; in a --grid item j sits at the top level and the rest in "extras"),
and any other field given is refused.

Every command emits a manifest-style JSON document: schema id, the exact
command line, parameters and seeds, then results.  Every clock reading lives
in the top-level `timing` block, so reruns are byte-identical outside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .zpset import format_zpset
from .vecset import Params, VecSet, format_vecset, parse_vecset, parse_vectors, vec_is_kl_sumfree
from .constructions import (
    STRUCTURES,
    TYPE_KINDS,
    CuboidSpec,
    GeneratorCheckError,
    ParameterError,
    gen_cuboid,
    gen_type,
    make_spec,
    nontriviality_check,
)
from .classify import classify
from .search import DEFAULT_P_LIMIT, SearchLimitError, enumerate_max, enumerate_second_level
from .covering import default_grid, tau_scan
from .spectral import spectrum, verify_spectral_lemma
from .criteria import CRITERIA, run_criterion

SCHEMA = "klsf/1"
EXIT_OK, EXIT_PARAM, EXIT_CHECK, EXIT_FINDING = 0, 1, 2, 3
EXIT_PIPE = 128 + 13  # SIGPIPE
# The keys every --grid item must hold.  Its "extras" may hold the fields
# that the STRUCTURES rows of the non-cuboid kinds read.
GRID_REQUIRED = ("k", "l", "p", "type")


def _emit(doc: dict, out_path: str | None, t0: float, timing: dict | None = None) -> None:
    from . import __version__

    doc = {**doc, "schema": SCHEMA, "version": __version__,
           "timing": {"wall_s": round(time.perf_counter() - t0, 3), **(timing or {})}}
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _literal(v: VecSet) -> str:
    return format_zpset(v.to_zpset()) if v.n == 1 else format_vecset(v)


def _read_set(args) -> VecSet:
    text = args.set if args.set else sys.stdin.read()
    return parse_vecset(text)


# ---------------------------------------------------------------------------
# Verbs


def cmd_construct(args, argv) -> int:
    t0 = time.perf_counter()
    if args.grid:
        with open(args.grid) as fh:
            grid = json.load(fh)
        if not isinstance(grid, list):
            raise ParameterError(f"--grid must hold a list of items, got {grid!r}")
        results = [_construct_record(_spec_from_grid_item(item, i)) for i, item in enumerate(grid)]
    else:
        results = _construct_record(_spec_from_grid_item(_grid_item_from_args(args)))
    _emit({"command": argv, "results": results}, args.out, t0)
    return EXIT_OK


def _grid_item_from_args(args) -> dict:
    """The one-item --grid entry that the construct flags describe."""
    extras = {"a": args.a, "s": args.s,
              "vbasis": None if args.vbasis is None else parse_vectors(args.vbasis),
              "pset": None if args.pset is None else parse_vectors(args.pset)}
    return {"k": args.k, "l": args.l, "p": args.p, "n": args.n, "type": args.type, "j": args.j,
            "extras": {key: v for key, v in extras.items() if v is not None}}


def _spec_from_grid_item(item: dict, position: int = 0):
    if not isinstance(item, dict):
        raise ParameterError(f"grid item must be an object, got {item!r}")
    missing = [key for key in GRID_REQUIRED if key not in item]
    if missing:
        raise ParameterError(f"grid item {position} has no {', '.join(missing)}"
                             f" (required: {', '.join(GRID_REQUIRED)})")
    for key in ("k", "l", "p", "n", "j"):
        value = item.get(key, 0)
        if key == "j" and value is None:  # j's default, the first cuboid
            continue
        if type(value) is not int:  # not a bool either: True would run as 1
            raise ParameterError(f"grid item field {key} must be an int, got {value!r}")
    params = Params(item["k"], item["l"], item["p"], item.get("n", 1))
    kind = str(item["type"]).lower()
    extras = item.get("extras") or {}
    if not isinstance(extras, dict):
        raise ParameterError(f"grid item extras must be an object, got {extras!r}")
    known = list(dict.fromkeys(f for name in TYPE_KINDS for f in STRUCTURES[name].reads))
    unknown = sorted(set(extras) - set(known))
    if unknown:
        raise ParameterError(f"unknown extras {', '.join(unknown)}; known: {', '.join(known)}")
    fields = {}
    for key, value in extras.items():
        if key in ("a", "s"):
            if type(value) is not int:
                raise ParameterError(f"grid item extras field {key} must be an int, got {value!r}")
            fields[key] = value
        elif isinstance(value, (list, tuple)) and all(
                isinstance(v, (list, tuple)) and all(type(c) is int for c in v) for v in value):
            fields[key] = tuple(map(tuple, value))
        else:
            raise ParameterError(f"grid item extras field {key} must be a list of lists of ints,"
                                 f" got {value!r}")
    kind = kind if kind.startswith(("cuboid", "type", "rz")) else f"type{kind}"
    return make_spec(kind, params, j=item.get("j"), **fields)


def _construct_record(spec) -> dict:
    params = spec.params
    out = gen_cuboid(spec) if isinstance(spec, CuboidSpec) else gen_type(spec)
    verdict = nontriviality_check(out, params) if params.n <= 2 else None
    return {
        "params": {"k": params.k, "l": params.l, "p": params.p, "n": params.n,
                   "m": params.m, "lambda": params.lam},
        "kind": "cuboid" if isinstance(spec, CuboidSpec) else spec.which,
        "set": _literal(out),
        "size": len(out),
        "sumfree": True,  # gen_* verify on emission and raise otherwise
        "nontrivial": None if verdict is None else verdict.status,
        "notes": list(getattr(spec, "notes", ())),
    }


def cmd_verify(args, argv) -> int:
    t0 = time.perf_counter()
    v = _read_set(args)
    ok = vec_is_kl_sumfree(v, args.k, args.l)
    doc = {"command": argv,
           "results": {"set": _literal(v), "k": args.k, "l": args.l,
                       "size": len(v), "sumfree": ok}}
    _emit(doc, args.out, t0)
    return EXIT_OK


def cmd_classify(args, argv) -> int:
    t0 = time.perf_counter()
    v = _read_set(args)
    report = classify(v, args.k, args.l)
    _emit({"command": argv, "results": report.to_dict()}, args.out, t0)
    return EXIT_OK


def cmd_enumerate(args, argv) -> int:
    t0 = time.perf_counter()
    params = Params(args.k, args.l, args.p)
    run = (enumerate_max(params, args.limit) if args.level == "max"
           else enumerate_second_level(params, args.limit))
    _emit({"command": argv, "results": run.to_dict()}, args.out, t0,
          {"search_s": round(run.wall_time, 3)})
    if args.csv:
        _write_orbit_csv(args.csv, run)
    return EXIT_FINDING if run.findings else EXIT_OK


def _write_orbit_csv(path: str, run) -> None:
    with open(path, "w") as fh:
        fh.write("orbit_index,size,elements,label,notes\n")
        if run.level == "max":
            for i, o in enumerate(run.extremal_orbits):
                fh.write(f"{i},{len(o)},\"{sorted(o.elements())}\",extremal,\n")
        else:
            for i, (o, rep) in enumerate(run.second_level_orbits):
                fh.write(f"{i},{len(o)},\"{sorted(o.elements())}\",{rep.label},"
                         f"\"{'; '.join(rep.notes)}\"\n")


def _fraction(text: str, flag: str) -> Fraction:
    """The exact value of a flag such as 1/3; a zero denominator is a parameter error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParameterError(f"{flag} {text!r} has a zero denominator") from None


def cmd_covering(args, argv) -> int:
    t0 = time.perf_counter()
    c = _fraction(args.c, "--c")
    step = _fraction(args.tau_step, "--tau-step")
    top = _fraction(args.tau_top, "--tau-top")
    grid = tuple(t for t in default_grid(step) if t <= top)
    if args.tau:
        grid = tuple(sorted(set(grid) | {_fraction(args.tau, "--tau")}))
    scan = tau_scan(args.p, c, mode=args.mode, grid=grid, seed=args.seed, trials=args.trials)
    doc = scan.to_dict()
    _emit({"command": argv, "seeds": {"scan": args.seed}, "results": doc}, args.out, t0)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("tau,violations,sets_examined\n")
            for tau in scan.grid:
                fh.write(f"{tau},{len(scan.violations_at(tau))},{scan.sets_examined}\n")
    return EXIT_FINDING if scan.violations else EXIT_OK


def cmd_spectral(args, argv) -> int:
    t0 = time.perf_counter()
    v = _read_set(args)
    chk = verify_spectral_lemma(v, args.k, args.l)
    doc = chk.to_dict()
    doc["set"] = _literal(v)
    _emit({"command": argv, "results": doc}, args.out, t0)
    if args.full_csv:
        spec = spectrum(v)
        with open(args.full_csv, "w") as fh:
            fh.write("character_index,re,im,modulus\n")
            for idx, val in enumerate(spec.values):
                fh.write(f"{idx},{val.real:.12e},{val.imag:.12e},{abs(val):.12e}\n")
    return EXIT_OK


def cmd_reproduce(args, argv) -> int:
    t0 = time.perf_counter()
    ids = list(CRITERIA) if args.criterion.lower() == "all" else [args.criterion]
    worst = EXIT_OK
    records = []
    elapsed = {}
    for cid in ids:
        res = run_criterion(cid)
        print(res.summary(), file=sys.stderr)
        for line in res.details:
            print("   " + line, file=sys.stderr)
        for line in res.findings:
            print("   FINDING: " + line, file=sys.stderr)
        records.append({"criterion": res.cid, "passed": res.passed,
                        "findings": res.findings, "details": res.details})
        elapsed[res.cid] = round(res.elapsed, 2)
        if not res.passed:
            worst = EXIT_CHECK
        elif res.findings and worst == EXIT_OK:
            worst = EXIT_FINDING
    _emit({"command": argv, "results": records}, args.out, t0, {"criteria_s": elapsed})
    return worst


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON manifest here instead of stdout")
    ap = argparse.ArgumentParser(prog="klsf", parents=[common],
                                 description="(k,l)-sum-free structure toolkit over F_p^n")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    pc = add_parser("construct", help="emit a named structure")
    pc.add_argument("--type", default="cuboid",
                    help="cuboid, 1-5/type1-type5, or rz")
    pc.add_argument("--k", type=int, default=2)
    pc.add_argument("--l", type=int, default=1)
    pc.add_argument("--p", type=int, default=11)
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--j", type=int, default=None, help="extremal cuboid index (default 0)")
    pc.add_argument("--a", type=int, default=None, help="type-1 interval start")
    pc.add_argument("--vbasis", default=None, help='subspace basis, e.g. "(1,0);(0,1)" or "" for {0}')
    pc.add_argument("--s", type=int, default=None, help="product depth for type 5 / rz")
    pc.add_argument("--pset", default=None, help='P as "{(1),(5)}" or "{1,5}"')
    pc.add_argument("--grid", default=None, help="JSON file with a list of {k,l,p,n,type,extras}")
    pc.set_defaults(fn=cmd_construct)

    pv = add_parser("verify", help="check (k,l)-sum-freeness of a set literal")
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--l", type=int, required=True)
    pv.add_argument("--set", default=None, help="set literal; stdin when omitted")
    pv.set_defaults(fn=cmd_verify)

    pcl = add_parser("classify", help="taxonomy label with a regenerating witness")
    pcl.add_argument("--k", type=int, required=True)
    pcl.add_argument("--l", type=int, required=True)
    pcl.add_argument("--set", default=None)
    pcl.set_defaults(fn=cmd_classify)

    pe = add_parser("enumerate", help="exhaustive search over Z_p")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--l", type=int, required=True)
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--level", choices=("max", "second"), default="max")
    pe.add_argument("--limit", type=int, default=DEFAULT_P_LIMIT)
    pe.add_argument("--csv", default=None)
    pe.set_defaults(fn=cmd_enumerate)

    pcov = add_parser("covering", help="covering-property scan")
    pcov.add_argument("--p", type=int, required=True)
    pcov.add_argument("--c", required=True, help="density bound, e.g. 1/3 or 10/107")
    pcov.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    pcov.add_argument("--tau-step", default="1/20")
    pcov.add_argument("--tau-top", default="1")
    pcov.add_argument("--tau", default=None, help="extra grid point to include")
    pcov.add_argument("--seed", type=int, default=0)
    pcov.add_argument("--trials", type=int, default=100_000)
    pcov.add_argument("--csv", default=None)
    pcov.set_defaults(fn=cmd_covering)

    ps = add_parser("spectral", help="spectral bound check for a set literal")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--l", type=int, required=True)
    ps.add_argument("--set", default=None)
    ps.add_argument("--full-csv", default=None)
    ps.set_defaults(fn=cmd_spectral)

    pr = add_parser("reproduce", help="run an acceptance criterion end to end")
    pr.add_argument("criterion", help="A1..A11 or 'all'")
    pr.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAM if exc.code else EXIT_OK
    try:
        code = args.fn(args, ["klsf", *argv])
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's last flush of the
        # output left in its buffer cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    except GeneratorCheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ParameterError, SearchLimitError, ValueError, KeyError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())

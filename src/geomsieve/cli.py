"""Command-line interface.

Subcommands:

    lattice-check SOURCE        geometric axioms + sign-alternation check
    sieve-run PATH              run a sieve instance from a JSON file
    verify-all                  run the named end-to-end checks
    dowling table               emit a Whitney triangle as CSV
    dowling build               write a Dowling lattice as JSON
    dowling conv                one shifted convolution value
    dowling numbers             Dowling numbers D_{m,r}(0..nmax)
    asym dowling                saddle-point data for D_{m,r}(n)

SOURCE is either a path to a lattice JSON file or a generator name such
as boolean:4, partition:5, dowling:3:2, uniform:2:6, graphic:k4.
Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage or
unparseable input.

A run is one short process, so each subcommand imports the modules it
runs inside its cmd_* function.  At the top this module imports only
what the parser and lattice-check need: generators and poset, brun,
and the verify-all scope table.
"""

import argparse
import json
import os
import sys

from . import generators
from .brun import verify_brun
from .errors import ELEMENT_CAP, GeomsieveError, NotGeometric
from .poset import _exact_digits, lattice_to_json
from .scopes import SCOPES

__all__ = ["main"]


def _json_int(text):
    """A JSON integer, exact within the interpreter's int-to-str digit
    limit; past it, the sign is kept and the size read as its lower
    bound 10^(digits - 1).  Every integer in lattice JSON is a size or
    an index, so such a value is over any cap and refused by size."""
    try:
        return int(text)
    except ValueError:  # past the digit limit
        bound = 10 ** (len(text.lstrip("-")) - 1)
        return -bound if text.startswith("-") else bound


def _exact_json_int(text):
    """A JSON integer in a sieve file: an exact value, so past the
    int-to-str digit limit it is refused, not bounded as in _json_int."""
    try:
        return int(text)
    except ValueError:  # past the digit limit
        raise ValueError(
            f"sieve JSON has a {len(text.lstrip('-'))}-digit integer, past "
            f"the {sys.get_int_max_str_digits()}-digit limit on exact "
            "values") from None


def _read_json(path, parse_int):
    """A JSON file, parsed by the C decoder; only when that raises
    ValueError for an integer past the int-to-str digit limit is it
    parsed again with parse_int, a Python call per integer."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer past the digit limit
        return json.loads(text, parse_int=parse_int)


def _load_lattice(source, cap):
    if os.path.exists(source):
        source = _read_json(source, _json_int)
    elif ":" not in source:
        raise ValueError(f"{source!r} is neither a file nor a generator name")
    return generators.load_lattice(source, cap)


def _emit(data, fmt, stream=None):
    stream = stream or sys.stdout
    with _exact_digits():
        if fmt == "json":
            json.dump(data, stream, indent=2, sort_keys=True)
            stream.write("\n")
        else:
            for key in sorted(data):
                stream.write(f"{key}: {data[key]}\n")


def cmd_lattice_check(args):
    lat = _load_lattice(args.source, args.cap_elements)
    chk = lat.is_geometric()
    out = {
        "source": args.source,
        "n": lat.n_elems,
        "rank": lat.top_rank,
        "geometric": chk.ok,
        "failure": chk.failure,
        "witness": list(chk.witness) if chk.witness else None,
    }
    if chk.ok:
        report = verify_brun(lat)
        out["whitney_first"] = list(report.whitney_first)
        out["partial_sums"] = list(report.partial_sums)
        out["brun_ok"] = True
    _emit(out, args.format)
    return 0 if chk.ok else 1


def _cutoff(text):
    """--cutoff: a non-negative integer, or "all" for every cutoff."""
    if text == "all":
        return text
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"need a non-negative integer or 'all', not {text!r}")
    return value


def cmd_sieve_run(args):
    from .sieve import (
        brun_bounds,
        brun_profile,
        sieve_error_bound,
        sieve_instance_from_json,
        sieve_main_term,
        sifted_count_exact,
    )

    data = _read_json(args.path, _exact_json_int)
    inst = sieve_instance_from_json(data, cap_elements=args.cap_elements)
    lat = inst.lattice
    rank_tau = lat.rank[inst.tau]
    every = args.cutoff == "all"
    cutoff = args.cutoff
    if cutoff in (None, "all"):
        cutoff = (rank_tau + 1) // 2
    exact = sifted_count_exact(inst)
    main_term = sieve_main_term(inst)
    bound = sieve_error_bound(inst)
    profile = brun_profile(inst) if every else (brun_bounds(inst, cutoff),)
    lower, upper = profile[-1]
    residual = exact - main_term
    ok = all(lo <= exact <= up for lo, up in profile)
    out = {
        "n": lat.top_rank,
        "rank_tau": rank_tau,
        "sifted_count": exact,
        "main_term": str(main_term),
        "error_bound": str(bound),
        "residual": str(residual),
        "cutoff": cutoff,
        "lower": lower,
        "upper": upper,
        "sandwich_ok": ok,
    }
    if every:
        out["profile"] = [list(bounds) for bounds in profile]
    _emit(out, args.format)
    return 0 if ok else 1


def cmd_verify_all(args):
    from . import verify

    results = verify.run_checks(scope=args.scope, fast=args.fast)
    if args.format == "json":
        _emit({
            "checks": [
                {"name": r.name, "ok": r.ok, "detail": r.detail,
                 "seconds": round(r.seconds, 3)}
                for r in results
            ],
            "ok": all(r.ok for r in results),
        }, "json")
    else:
        for r in results:
            word = "PASS" if r.ok else "FAIL"
            print(f"{word} {r.name}: {r.detail} ({r.seconds:.1f}s)")
        failed = sum(not r.ok for r in results)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if all(r.ok for r in results) else 1


def cmd_dowling_table(args):
    from . import dowling

    if args.kind == "first" and args.r not in (None, 1):
        raise ValueError("the first-kind triangle has no shift; drop --r")
    r = 1 if args.r is None else args.r
    # each row is written as it is formed, so the table is never held
    if args.kind == "first":
        rows = dowling.whitney_first_rows(args.m, args.nmax)
    else:
        rows = dowling.whitney_second_rows(args.m, r, args.nmax)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dowling._write_csv(fh, args.kind, args.m, r, rows)
    else:
        dowling._write_csv(sys.stdout, args.kind, args.m, r, rows)
    return 0


def cmd_dowling_build(args):
    lat = generators.parse_named(f"dowling:{args.n}:{args.m}",
                                 args.cap_elements)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(lattice_to_json(lat), fh)
        fh.write("\n")
    print(f"wrote {lat.n_elems} elements to {args.out}")
    return 0


def cmd_dowling_conv(args):
    from collections import deque

    from . import dowling

    value = dowling.shifted_convolution(args.m, args.n, args.t, args.s)
    via_series = dowling.conv_series(args.m, args.n, args.t, args.s)[args.s]
    if 0 <= args.t - args.n <= args.s:
        # W_{m,1+mn}(s, t - n), from the last row of that triangle
        last = deque(dowling.whitney_second_rows(
            args.m, 1 + args.m * args.n, args.s), maxlen=1).pop()
        via_table = last[args.t - args.n]
    else:
        via_table = 0
    out = {
        "m": args.m, "n": args.n, "t": args.t, "s": args.s,
        "value": value,
        "via_series": via_series,
        "via_shifted_triangle": via_table,
        "agree": value == via_series == via_table,
    }
    _emit(out, args.format)
    return 0 if out["agree"] else 1


def cmd_dowling_numbers(args):
    from . import dowling

    r = 1 if args.r is None else args.r
    dowling._check_numbers_n(args.nmax, "nmax")
    values = list(dowling._dowling_numbers(args.m, r, args.nmax))
    if args.format == "csv":
        with _exact_digits():
            sys.stdout.write("n,value\n")
            for n, v in enumerate(values):
                sys.stdout.write(f"{n},{v}\n")
    else:
        _emit({"m": args.m, "r": r,
               "values": values}, args.format)
    return 0


def cmd_asym_dowling(args):
    from .asym import compare_exact, saddle_values

    digits = args.digits
    if args.compare_exact:
        cmp_ = compare_exact(args.m, args.r, args.n, digits=digits)
        data = cmp_.saddle
    else:
        cmp_ = None
        data = saddle_values(args.m, args.r, args.n, digits=digits)
    import mpmath as mp  # loaded by the computation, once it is admitted

    def fmt(x):
        return mp.nstr(x, digits)

    out = {
        "m": args.m, "r": args.r, "n": args.n, "digits": digits,
        "delta": fmt(data.delta),
        "g0": fmt(data.g0),
        "g2": fmt(data.g2),
        "log_asymptotic": fmt(data.log_asymptotic),
    }
    if cmp_ is not None:
        out["log_exact"] = fmt(cmp_.log_exact)
        out["rel_err"] = fmt(cmp_.rel_err)
        out["normalized_err"] = fmt(cmp_.normalized_err)
    _emit(out, args.format)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geomsieve",
        description="Exact lattice sieve and Dowling-number toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p, default="json", formats=("json", "text")):
        p.add_argument("--format", choices=formats, default=default)

    p = sub.add_parser("lattice-check",
                       help="geometric axioms and sign-alternation check")
    p.add_argument("source", help="lattice JSON path or generator name")
    p.add_argument("--cap-elements", type=int, default=ELEMENT_CAP)
    add_fmt(p)
    p.set_defaults(func=cmd_lattice_check)

    p = sub.add_parser("sieve-run", help="run a sieve instance JSON file")
    p.add_argument("path")
    p.add_argument("--cutoff", type=_cutoff, default=None,
                   help="truncation parameter for the two-sided bounds, "
                        "or 'all' to add the bounds at every cutoff")
    p.add_argument("--cap-elements", type=int, default=ELEMENT_CAP)
    add_fmt(p)
    p.set_defaults(func=cmd_sieve_run)

    p = sub.add_parser("verify-all", help="run the end-to-end checks")
    p.add_argument("--scope", choices=sorted(SCOPES), default="all")
    p.add_argument("--fast", action="store_true",
                   help="smaller instances, skips the largest cases")
    add_fmt(p, default="text")
    p.set_defaults(func=cmd_verify_all)

    dow = sub.add_parser("dowling", help="triangles, lattices, numbers")
    dsub = dow.add_subparsers(dest="dowling_command", required=True)

    p = dsub.add_parser("table", help="Whitney triangle as CSV")
    p.add_argument("--kind", choices=["first", "second"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dowling_table)

    p = dsub.add_parser("build", help="write a Dowling lattice JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cap-elements", type=int, default=ELEMENT_CAP)
    p.set_defaults(func=cmd_dowling_build)

    p = dsub.add_parser("conv", help="one shifted convolution value")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=cmd_dowling_conv)

    p = dsub.add_parser("numbers", help="Dowling numbers up to nmax")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--nmax", type=int, required=True)
    add_fmt(p, formats=("json", "text", "csv"))
    p.set_defaults(func=cmd_dowling_numbers)

    asy = sub.add_parser("asym", help="saddle-point asymptotics")
    asub = asy.add_subparsers(dest="asym_command", required=True)

    p = asub.add_parser("dowling", help="saddle data for D_{m,r}(n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--compare-exact", action="store_true")
    p.add_argument("--digits", type=int, default=50)
    add_fmt(p)
    p.set_defaults(func=cmd_asym_dowling)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotGeometric as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (GeomsieveError, ValueError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

COMMANDS is the whole command line: each subcommand (dowling and asym
hold one level of their own) with its help line and either its
subcommands or its handler and arguments, each argument a tuple (name,
kind, default, help): a name without dashes is a positional, the kind
is str, int, _cutoff, a tuple of choices or bool (a flag), and the
default _REQUIRED makes it required.  _parse reads argv against it:
exact option names (--name value or --name=value), -h at every level,
and a usage error in argparse's words, with exit code 2.

SOURCE is either a path to a lattice JSON file or a generator name such
as boolean:4, partition:5, dowling:3:2, uniform:2:6, graphic:k4.
Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage or
unparseable input.

A run is one short process, so each subcommand imports the modules it
runs inside its cmd_* function.  At the top this module imports only
what the parser and lattice-check need: generators and poset, brun,
and the verify-all scope table.

The process entry, run(), called by the `geomsieve` script and by
`python -m geomsieve.cli`, flushes stdout and stderr after main() and
ends the process with os._exit, skipping interpreter teardown; the exit
code is the one main() returns.  atexit handlers do not run, so
coverage.py, for one, writes no data for such a process.  main(argv)
never ends the process: it returns the exit code to its caller in the
same interpreter.
"""

import json
import os
import sys
import types

from . import generators
from .brun import verify_brun
from .errors import ELEMENT_CAP, BrunViolation, GeomsieveError, NotGeometric
from .poset import _exact_digits, lattice_to_json
from .scopes import SCOPES

__all__ = ["main", "run"]


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
        value = -1
    if value < 0:
        raise ValueError(f"need a non-negative integer or 'all', not {text!r}")
    return value


def cmd_sieve_run(args):
    from .sieve import (
        _main_and_bound,
        brun_bounds,
        brun_profile,
        sieve_instance_from_json,
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
    main_term, bound = _main_and_bound(inst)
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

    if args.kind == "first" and args.r != 1:
        raise ValueError("the first-kind triangle has no shift; drop --r")
    # each row is written as it is formed, so the table is never held
    if args.kind == "first":
        rows = dowling.whitney_first_rows(args.m, args.nmax)
    else:
        rows = dowling.whitney_second_rows(args.m, args.r, args.nmax)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dowling._write_csv(fh, args.kind, args.m, args.r, rows)
    else:
        dowling._write_csv(sys.stdout, args.kind, args.m, args.r, rows)
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

    dowling._check_numbers_n(args.nmax, "nmax")
    values = list(dowling._dowling_numbers(args.m, args.r, args.nmax))
    if args.format == "csv":
        with _exact_digits():
            sys.stdout.write("n,value\n")
            for n, v in enumerate(values):
                sys.stdout.write(f"{n},{v}\n")
    else:
        _emit({"m": args.m, "r": args.r, "values": values}, args.format)
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


_REQUIRED = object()
_INT = (int, _REQUIRED, None)
_CAP = ("--cap-elements", int, ELEMENT_CAP, "refuse larger lattices")
_FORMAT = ("--format", ("json", "text"), "json", None)
COMMANDS = {
    "lattice-check": (
        "geometric axioms and sign-alternation check", cmd_lattice_check,
        ("source", str, _REQUIRED, "lattice JSON path or generator name"),
        _CAP, _FORMAT),
    "sieve-run": ("run a sieve instance JSON file", cmd_sieve_run,
                  ("path", str, _REQUIRED, None),
                  ("--cutoff", _cutoff, None, "truncation parameter of the "
                   "bounds, or 'all' for the bounds at every cutoff"),
                  _CAP, _FORMAT),
    "verify-all": ("run the end-to-end checks", cmd_verify_all,
                   ("--scope", tuple(sorted(SCOPES)), "all", None),
                   ("--fast", bool, False, "skip the largest instances"),
                   ("--format", ("json", "text"), "text", None)),
    "dowling": ("triangles, lattices, numbers", {
        "table": ("Whitney triangle as CSV", cmd_dowling_table,
                  ("--kind", ("first", "second"), _REQUIRED, None),
                  ("--m", *_INT), ("--r", int, 1, None),
                  ("--nmax", *_INT), ("--out", str, None, None)),
        "build": ("write a Dowling lattice JSON", cmd_dowling_build,
                  ("--n", *_INT), ("--m", *_INT),
                  ("--out", str, _REQUIRED, None), _CAP),
        "conv": ("one shifted convolution value", cmd_dowling_conv,
                 ("--m", *_INT), ("--n", *_INT), ("--t", *_INT),
                 ("--s", *_INT), _FORMAT),
        "numbers": ("Dowling numbers up to nmax", cmd_dowling_numbers,
                    ("--m", *_INT), ("--r", int, 1, None), ("--nmax", *_INT),
                    ("--format", ("json", "text", "csv"), "json", None)),
    }),
    "asym": ("saddle-point asymptotics", {
        "dowling": ("saddle data for D_{m,r}(n)", cmd_asym_dowling,
                    ("--m", *_INT), ("--r", *_INT), ("--n", *_INT),
                    ("--compare-exact", bool, False, None),
                    ("--digits", int, 50, None), _FORMAT),
    }),
}
_TOP = ("Exact lattice sieve and Dowling-number toolkit", COMMANDS)


def _shown(arg):
    """An argument as usage shows it: source, --fast, --m M, --kind {a,b}."""
    name, kind = arg[:2]
    meta = ("{%s}" % ",".join(kind) if isinstance(kind, tuple)
            else name[2:].upper())
    return name if name[0] != "-" or kind is bool else f"{name} {meta}"


def _leave(prog, node, error=None):
    """Exit 2 with the usage and error on stderr, or 0 with help on stdout."""
    group = isinstance(node[1], dict)
    usage = f"usage: {prog} [-h] " + ("{%s} ..." % ",".join(node[1])
                                      if group else " ".join(
        s if a[2] is _REQUIRED else f"[{s}]" for a in node[2:]
        for s in [_shown(a)]))
    if error:
        print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        raise SystemExit(2)
    rows = ([(name, sub[0]) for name, sub in node[1].items()] if group
            else [(_shown(a), a[3] or "") for a in node[2:]])
    print(usage, "", node[0], "", *(f"  {left:<30} {right}".rstrip()
          for left, right in [("-h, --help", "show this help"), *rows]),
          sep="\n")
    raise SystemExit(0)


def _parse(words, stray, prog="geomsieve", node=_TOP, dest="command"):
    """The handler the words name in COMMANDS and its arguments; words
    no argument takes gather in stray.  -h and a usage error exit."""
    group = isinstance(node[1], dict)  # its one positional picks a command
    args = [(dest, tuple(node[1]), _REQUIRED, None)] if group else node[2:]
    named = {a[0]: a for a in args if a[0][0] == "-"}
    slots = [a for a in args if a[0][0] != "-"]
    values = {a[0]: a[2] for a in args if a[2] is not _REQUIRED}
    for word in words:
        name, eq, value = word.partition("=")
        arg = named.get(name)
        if word in ("-h", "--help"):
            _leave(prog, node)
        if arg is None or eq and arg[1] is bool:  # a positional, or unknown
            if word[:1] == "-" or not slots:
                stray.append(word)
                continue
            arg, value = slots.pop(0), word
        elif not eq:
            value = True if arg[1] is bool else next(words, None)
        name, kind = arg[:2]
        try:
            if value is None:
                raise ValueError("expected one argument")
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"invalid choice: {value!r} (choose from "
                                 f"{', '.join(map(repr, kind))})")
            value = kind(value) if kind in (int, _cutoff) else value
        except ValueError as exc:
            int_error = kind is int and value is not None
            _leave(prog, node, f"argument {name}: " + (
                f"invalid int value: {value!r}" if int_error else str(exc)))
        if group:
            return _parse(words, stray, f"{prog} {value}", node[1][value],
                          f"{value}_command")
        values[name] = value
    missing = ", ".join(a[0] for a in args if a[0] not in values)
    if missing:
        _leave(prog, node, f"the following arguments are required: {missing}")
    if stray:
        _leave("geomsieve", _TOP, f"unrecognized arguments: {' '.join(stray)}")
    return node[1], types.SimpleNamespace(**{
        name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def main(argv=None):
    func, args = _parse(iter(sys.argv[1:] if argv is None else argv), [])
    try:
        return func(args)
    except (NotGeometric, BrunViolation) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (GeomsieveError, ValueError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry (see the module docstring).  A SystemExit or an
    uncaught exception from main() ends the process the normal way.  So
    does a failed flush: the code is returned, and the interpreter's own
    flush at exit reports the failure, with exit code 120."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())

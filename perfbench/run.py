"""Layered cold-start benchmark for geomsieve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is taken from ``src/``.
One client runs ops back to back (a closed loop) in whole rounds of the
workload's cases until the ops have cost S seconds at the nominal speed of
a reference computation (see REF_NOMINAL_S).  Op costs are reported in
units of that reference.  Each op's answer is checked against an oracle
from ``lattices.py`` right after the op, off the clock.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` every op runs twice, plainly and with spans on each
geomsieve layer (see ``tracing.py``), and the last line holds the
per-layer metrics.  The line before it records the provenance and the
details behind the metrics.  See README.md for what each metric means.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lattices as L  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HERE, KNOWN_DEFECTS, ROOT, SRC, WORKLOADS, child_env)

SETUP_REPEATS = 3
# The host's speed changes from second to second: a shared core runs up to
# 1.5x slower at times, in CPU time as well as in wall time.  So every op's
# CPU time is divided by the mean CPU time of a fixed pure-Python reference
# computation (reference() below) run on the same CPU just before and just
# after it, and every 0.2 s while a CLI op runs; op costs are reported in
# reference units, "ref".  One ref counts as REF_NOMINAL_S seconds, about
# what the reference takes on a 2-core Xeon VM: in the loop's budget, so
# that the number of rounds in a run does not follow the host's speed, and
# in setup_s, which is reported in seconds.
REF_LATTICE = ("partition", 6)
REF_REPEATS = 3
REF_NOMINAL_S = 0.01
VERIFY_CHECK_NAMES = [
    "alternating-sums", "brun-bounds-sandwich", "brun-zoo",
    "classical-oracles", "log-concavity-unimodality",
    "matroid-lattice-consistency", "saddle-asymptotics",
    "shifted-convolution-grid", "sieve-closed-form", "whitney-orthogonality",
]

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ref", "ref"),
    ("latency_tail_ref", "ref"),
    ("throughput_ops_kref", "1/kref"),
    ("correct_share", "share"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [("cli.process_start_s", "s/op")]
    + [(name, "s/op") for name in TIME_METRICS]
    + [(name, "count/op") for name in COUNT_METRICS]
    + [("poset.interval.repeat_share", "share")]
    + [(f"verify.{name}_s", "s/op") for name in VERIFY_CHECK_NAMES]
    + [("trace.overhead_s", "s/op"), ("trace.overhead_share", "share")]
)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import geomsieve.poset  # noqa: F401  (loads the kernel, if any)

    kernels = sys.modules.get("geomsieve._kernels")
    backend = getattr(kernels, "BACKEND", "pure") if kernels else "pure"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "backend": backend,
    }


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup(workload, args, work, ref_lattice):
    """Time SETUP_REPEATS cold set-ups, each in a fresh interpreter (an
    in-process repeat would find the imports and generator caches warm),
    then set up in process for the run.  A sample is the CPU time (user
    plus system) of that interpreter in refs, times REF_NOMINAL_S: seconds
    at the reference's nominal speed.  Returns (samples, CPU seconds, wall
    seconds, state)."""
    samples, cpus, walls = [], [], []
    refs = [reference(ref_lattice)]
    for i in range(SETUP_REPEATS):
        probe_work = os.path.join(work, f"setup-{i}")
        os.mkdir(probe_work)
        c0 = children_cpu()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             args.workload, args.size, str(args.seed), probe_work],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=300, check=False)
        walls.append(time.perf_counter() - t0)
        cpus.append(children_cpu() - c0)
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()[-300:]}")
        refs.append(reference(ref_lattice))
        samples.append(cpus[-1] / ((refs[-2] + refs[-1]) / 2) * REF_NOMINAL_S)
    return samples, cpus, walls, workload.setup(args.seed, work, args.size)


def failure(workload, state, op, rec):
    """Why the op's answer is wrong, or None."""
    reason = workload.check(state, op, rec)
    if reason is None and rec.layers is not None:
        spent = rec.layers["self_sum_s"] + rec.layers.get("cli.process_start_s", 0.0)
        if spent > rec.wall:
            reason = f"traced self time {spent} > wall {rec.wall}"
    return reason


def reference(lattice):
    """CPU seconds of the reference computation: REF_REPEATS times the
    closure of a small lattice's order and an all-pairs comparison of its
    down-sets, the same kind of work as geomsieve's scan."""
    c0 = time.process_time()
    for _ in range(REF_REPEATS):
        down, _rank = L.order_of(lattice[0], lattice[1])
        sum(1 for a in down for b in down if a & b == a)
    return time.process_time() - c0


def measure(workload, state, args, ref_lattice):
    """Whole rounds, back to back, until the plain ops have cost
    args.seconds at REF_NOMINAL_S seconds per ref (plus the wall time of
    traced ops).  Counting cost in refs keeps the number of rounds, and so
    the case the median and the tail land on, the same when the host slows
    down.  Each answer is checked right after its op, off the clock.
    Returns ([(case, plain, traced, failure reasons)], wall seconds,
    reference CPU seconds)."""
    rng = L.random_seed(args.seed, "order")
    results = []
    refs = [reference(ref_lattice)]
    spent = elapsed = 0.0
    while spent < args.seconds:
        for op in workload.round(state, rng):
            t0 = time.perf_counter()
            inside = []
            # Not while tracing: trace.overhead compares plain and traced
            # wall times, and the samples take CPU from the op process.
            plain = workload.run(
                state, op, during=None if args.trace else
                lambda: inside.append(reference(ref_lattice)))
            refs.extend(inside)
            traced = workload.run(state, op, Tracer()) if args.trace else None
            elapsed += time.perf_counter() - t0
            refs.append(reference(ref_lattice))
            plain.ref = plain.cpu / statistics.fmean(refs[-len(inside) - 2:])
            spent += (plain.ref * REF_NOMINAL_S
                      + (traced.wall if traced else 0.0))
            reasons = []
            for rec in (plain, traced):
                if rec is not None:
                    reasons.append(failure(workload, state, op, rec))
                    rec.answer = None
            results.append((op.case, plain, traced,
                            [r for r in reasons if r is not None]))
    return results, elapsed, refs


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, by
    nearest rank, and its value; with ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(args, results, setup_samples):
    latencies = [plain.ref for _case, plain, _t, _r in results]
    ok = sum(not reasons for _case, _p, _t, reasons in results)
    if args.workload == "sieve-bounds":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(plain.rss_kb for _case, plain, _t, _r in results)
    values = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ref": statistics.median(latencies),
        "latency_tail_ref": tail(latencies)[1],
        "throughput_ops_kref": 1000 * ok / sum(latencies),
        "correct_share": ok / len(results),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(args, results):
    traced = [t for _case, _p, t, _r in results]
    count = len(traced)
    sums = {}
    for rec in traced:
        for key, value in rec.layers.items():
            sums[key] = sums.get(key, 0.0) + value
    values = {name: sums.get(name, 0.0) / count for name, _unit in PER_LAYER}
    calls = sums.get("poset.interval.calls", 0)
    values["poset.interval.repeat_share"] = (
        sums.get("interval_repeats", 0) / calls if calls else 0.0)
    plain_total = sum(p.wall for _case, p, _t, _r in results)
    traced_total = sum(t.wall for t in traced)
    values["trace.overhead_s"] = (traced_total - plain_total) / count
    values["trace.overhead_share"] = traced_total / plain_total - 1
    if args.workload == "verify-all":
        per_check = {}
        for _case, plain, _t, _r in results:
            try:
                checks = json.loads(plain.stdout)["checks"]
            except (ValueError, KeyError):
                continue
            for check in checks:
                per_check.setdefault(check["name"], []).append(check["seconds"])
        for name in VERIFY_CHECK_NAMES:
            values[f"verify.{name}_s"] = statistics.fmean(
                per_check.get(name, [0.0]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs every workload on small inputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "geomsieve", "cli.py")):
        fail(f"no geomsieve source under {SRC}")
    if not compileall.compile_dir(os.path.join(SRC, "geomsieve"), quiet=1):
        fail("geomsieve does not compile")

    # One CPU for this process and every op process it starts, so that an
    # op and the reference computations around it run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]()
    work = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        ref_lattice = L.build(*REF_LATTICE)
        setup_samples, setup_cpus, setup_walls, state = setup(
            workload, args, work, ref_lattice)
        prov = provenance(args)
        if prov["backend"] != "pure":
            fail(f"kernel backend is {prov['backend']!r}; "
                 "this benchmark measures the pure-Python path", code=3)
        results, elapsed, refs = measure(workload, state, args, ref_lattice)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_case = {}
    reasons = {}
    failed = 0
    unexpected = False
    for case, plain, _t, wrong in results:
        by_case.setdefault(case, []).append(plain)
        failed += len(wrong)
        unexpected |= bool(wrong) and case not in KNOWN_DEFECTS
        for reason in wrong:
            key = f"{case}: {reason}"[:240]
            reasons[key] = reasons.get(key, 0) + 1
    walls = [p.wall for _o, p, _t, _r in results]
    cpus = [p.cpu for _o, p, _t, _r in results]
    detail = {
        "workload": args.workload,
        "provenance": prov,
        "ops": len(results),
        "op_seconds": elapsed,
        "latency_tail_percentile": tail(walls)[0],
        "failed_share": sum(bool(r) for _o, _p, _t, r in results) / len(results),
        "failures": reasons,
        "setup_samples_s": setup_samples,
        "setup_cpu_samples_s": setup_cpus,
        "setup_wall_samples_s": setup_walls,
        "cpu": os.sched_getaffinity(0).pop(),
        "reference_cpu_s": {"median": statistics.median(refs),
                            "min": min(refs), "max": max(refs)},
        "latency_cpu_p50_s": statistics.median(cpus),
        "latency_cpu_tail_s": tail(cpus)[1],
        "latency_wall_p50_s": statistics.median(walls),
        "latency_wall_tail_s": tail(walls)[1],
        "throughput_wall_ops_s":
            sum(not r for _o, _p, _t, r in results) / elapsed,
        "latency_p50_by_case": {
            case: {"ref": statistics.median(r.ref for r in recs),
                   "cpu_s": statistics.median(r.cpu for r in recs),
                   "wall_s": statistics.median(r.wall for r in recs)}
            for case, recs in sorted(by_case.items())},
    }
    print(json.dumps({"detail": detail}))
    metrics = (per_layer(args, results) if args.trace
               else end_to_end(args, results, setup_samples))
    attempted = len(results) * (2 if args.trace else 1)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

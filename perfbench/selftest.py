"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload on small inputs with tracing off and on, prints
every metric by name with its unit, and checks that
  * each result line has the agreed keys and exactly the metrics that
    BENCHMARK.json names, with their units, and no op failed;
  * a corrupted answer on any workload is counted as failed;
  * traced self times never exceed an op's wall time (run.failure fails
    the op otherwise, so a clean traced run shows it);
  * with the program missing, the benchmark exits non-zero without a
    result line.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lattices as L  # noqa: E402
import run  # noqa: E402
from workloads import HERE, ROOT, WORKLOADS, Record  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def run_tiny(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False)


def corrupt(name, rec):
    """The same record with one answer changed."""
    bad = Record(rec.wall, rec.code, rec.stdout, rec.stderr, rec.rss_kb,
                 rec.answer, rec.layers, rec.cpu)
    if name == "lattice-check":
        out = json.loads(rec.stdout)
        out["whitney_first"][1] += 1
        bad.stdout = json.dumps(out)
    elif name == "verify-all":
        out = json.loads(rec.stdout)
        out["checks"][0]["ok"] = False
        bad.stdout = json.dumps(out)
    elif name == "refuse":
        bad.code = 0
    else:
        inst, (exact, main, err, bounds) = rec.answer
        bad.answer = (inst, (exact + 1, main, err, bounds))
    return bad


def main():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for name in WORKLOADS:
        for trace in (0, 1):
            done = run_tiny(name, trace)
            label = f"{name} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed of "
                                f"{result['attempted']}")
            print(f"== {label}: {result['attempted']} ops, "
                  f"{result['failed']} failed")
            for metric, value in result["metrics"].items():
                print(f"  {metric:40s} {value['value']:<24.6g} {value['unit']}")

    for name, cls in WORKLOADS.items():
        workload = cls()
        work = tempfile.mkdtemp(prefix="_work-", dir=HERE)
        try:
            state = workload.setup(7, work, "tiny")
            records = [(op, workload.run(state, op))
                       for op in workload.round(state, L.random_seed(7, "t"))]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        clean = [op for op, rec in records
                 if run.failure(workload, state, op, rec)]
        caught = [op for op, rec in records
                  if run.failure(workload, state, op, corrupt(name, rec))]
        if clean or len(caught) != len(records):
            problems.append(f"{name}: {len(caught)} of {len(records)} "
                            f"corrupted answers caught, {len(clean)} clean "
                            "ones failed")
        else:
            print(f"== {name}: all {len(records)} corrupted answers caught")

    bare = tempfile.mkdtemp(prefix="_work-bare-", dir=HERE)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work-*", "__pycache__"))
        done = run_tiny("refuse", 0, cwd=bare,
                        script=os.path.join(bare, "perfbench", "run.py"))
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("ran without the program")
        else:
            print(f"== without src/: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

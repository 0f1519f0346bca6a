"""The four workloads: inputs, one op, and the oracle for its answer.

Each workload has
    setup(seed, work, size)  -> state     inputs written or built
    round(state, rng)        -> [op, ...] one seeded pass over its cases
    run(state, op, tracer)   -> record    one op, timed
    check(state, op, record) -> None or a reason for failure

A round holds every case of the workload once, in seeded order, so any
whole number of rounds has the same case mix.
"""

import json
import math
import os
import re
import select
import subprocess
import sys
import time
from fractions import Fraction

import lattices as L
from tracing import layer_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP_TIMEOUT_S = 120
# How often run_cli calls its ``during`` hook while an op process runs.
DURING_PERIOD_S = 0.2
DEFAULT_CAP = 5000
# Seeded relabellings written for each input file.  Round k uses variant
# k mod VARIANTS, so a run's median for a case does not hang on how one
# relabelling happens to order the scan (a witness found early or late).
VARIANTS = 4

# Ops that fail at this version for a known defect.  They stay in the
# workload and count as failed; they do not make the run incorrect.
KNOWN_DEFECTS = {
    "partition:2000": "int-to-str limit error instead of a size refusal",
}


class Op:
    def __init__(self, case, argv=None, **expect):
        self.case = case
        self.argv = argv
        self.expect = expect


class Record:
    def __init__(self, wall, code=0, stdout="", stderr="", rss_kb=0,
                 answer=None, layers=None, cpu=None):
        self.wall = wall
        self.cpu = cpu
        self.ref = None
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.rss_kb = rss_kb
        self.answer = answer
        self.layers = layers


# -- fresh-process CLI ops -------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv, work, traced=False, during=None):
    """Run ``geomsieve <argv>`` in a fresh interpreter and wait for it,
    calling ``during()``, if given, every DURING_PERIOD_S while it runs.

    Wall time runs from just before the process is started to its exit;
    the CPU time (user plus system) and the resource usage come from wait4
    on that one process.
    """
    out_path = os.path.join(work, "op.stdout")
    err_path = os.path.join(work, "op.stderr")
    spans_path = os.path.join(work, "op.spans.json")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        launch = time.perf_counter()
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                   repr(launch), spans_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "geomsieve.cli", *argv]
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        period = OP_TIMEOUT_S if during is None else DURING_PERIOD_S
        try:
            while not select.select([pidfd], [], [], period)[0]:
                if during is None or time.perf_counter() - launch > OP_TIMEOUT_S:
                    proc.kill()
                    break
                during()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - launch
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        rec = Record(wall, code, out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"), usage.ru_maxrss,
                     cpu=usage.ru_utime + usage.ru_stime)
    if traced:
        with open(spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        os.unlink(spans_path)
        rec.layers = layer_times(dump)
        rec.layers["cli.process_start_s"] = dump["process_start_s"]
        rec.layers["interval_repeats"] = dump["interval_repeats"]
    return rec


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _prefix_sums(w):
    out, t = [], 0
    for v in w:
        t += v
        out.append(t)
    return out


def _alternates(partial):
    return all(t >= 0 if k % 2 == 0 else t <= 0
               for k, t in enumerate(partial))


class CliWorkload:
    """Shared parts of the three workloads that start one process per op.

    state["cases"] holds, for each case, its list of input variants."""

    def round(self, state, rng):
        k = state["rounds"]
        state["rounds"] += 1
        ops = [variants[k % len(variants)] for variants in state["cases"]]
        rng.shuffle(ops)
        return ops

    def run(self, state, op, tracer=None, during=None):
        return run_cli(op.argv, state["work"], traced=tracer is not None,
                       during=during)


# -- lattice-check -------------------------------------------------------------------

LATTICE_CHECK_CASES = {
    "full": [("boolean", 11), ("partition", 7), ("dowling", 5, 3),
             ("dowling", 5, 2), ("uniform", 5, 12)],
    "tiny": [("boolean", 4), ("partition", 4), ("dowling", 2, 3),
             ("dowling", 2, 2), ("uniform", 2, 4)],
}


def _case_name(params):
    return ":".join(map(str, params))


class LatticeCheck(CliWorkload):
    """Fresh-process ``lattice-check`` on seeded relabellings of five
    geometric lattices, checked against closed-form Whitney numbers."""

    def setup(self, seed, work, size):
        cases = []
        for params in LATTICE_CHECK_CASES[size]:
            name = _case_name(params)
            lat = L.build(*params)
            whitney = L.whitney_first(*params)
            variants = []
            for v in range(VARIANTS):
                data, _perm = L.relabel(lat, L.random_seed(seed, name, v))
                path = os.path.join(work, f"{name.replace(':', '-')}-{v}.json")
                write_json(path, data)
                variants.append(Op(name, ["lattice-check", path], n=lat[0],
                                   rank=max(lat[2]), whitney=whitney))
            cases.append(variants)
        return {"work": work, "cases": cases, "rounds": 0}

    def check(self, state, op, rec):
        if rec.code != 0:
            return f"exit {rec.code}: {rec.stderr.strip()[-200:]}"
        try:
            out = json.loads(rec.stdout)
        except ValueError:
            return "output is not JSON"
        want = op.expect
        if out.get("n") != want["n"] or out.get("rank") != want["rank"]:
            return f"n/rank {out.get('n')}/{out.get('rank')}"
        if out.get("geometric") is not True or out.get("brun_ok") is not True:
            return "not reported geometric"
        if out.get("whitney_first") != want["whitney"]:
            return f"whitney_first {out.get('whitney_first')}"
        partial = out.get("partial_sums")
        if partial != _prefix_sums(want["whitney"]) or not _alternates(partial):
            return f"partial_sums {partial}"
        return None


# -- verify-all ------------------------------------------------------------------------

VERIFY_ARGV = {
    "full": ["verify-all", "--format", "json"],
    "tiny": ["verify-all", "--fast", "--format", "json"],
}
VERIFY_CHECKS = 10


class VerifyAll(CliWorkload):
    """Fresh-process ``verify-all --format json`` over the full scope."""

    def setup(self, seed, work, size):
        return {"work": work, "cases": [[Op("verify-all", VERIFY_ARGV[size])]],
                "rounds": 0}

    def check(self, state, op, rec):
        if rec.code != 0:
            return f"exit {rec.code}: {rec.stderr.strip()[-200:]}"
        try:
            out = json.loads(rec.stdout)
        except ValueError:
            return "output is not JSON"
        checks = out.get("checks", [])
        if out.get("ok") is not True or len(checks) != VERIFY_CHECKS:
            return f"ok={out.get('ok')} with {len(checks)} checks"
        bad = [c.get("name") for c in checks if c.get("ok") is not True]
        return f"failed checks {bad}" if bad else None


# -- refuse ------------------------------------------------------------------------------

REFUSE_SIZES = {
    # chain length, cap (None: the CLI default), oversized names,
    # dual and bowtie sources
    "full": (6000, None, ["partition:2000", "dowling:1500:2", "boolean:40"],
             ("partition", 7), [("boolean", 10), ("partition", 7)]),
    "tiny": (60, 50, ["partition:6", "dowling:4:2", "boolean:6"],
             ("partition", 4), [("boolean", 4), ("partition", 4)]),
}
WITNESS = re.compile(r"elements (\d+) and (\d+) have no join")


def _partition_join(p, q, n):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for block in list(p) + list(q):
        for x in block[1:]:
            parent[find(x)] = find(block[0])
    return len({find(x) for x in range(n)})


def _partition_meet(p, q):
    return sum(1 for a in p for b in q if set(a) & set(b))


class Refuse(CliWorkload):
    """Fresh-process ``lattice-check`` on inputs it must refuse or fail."""

    def setup(self, seed, work, size):
        length, cap, names, dual_src, bowtie_srcs = REFUSE_SIZES[size]
        cap_args = [] if cap is None else ["--cap-elements", str(cap)]
        cap_text = str(DEFAULT_CAP if cap is None else cap)
        cases = []

        def write_variants(name, make):
            """One op per variant; make(v) -> (json data, op expectations)."""
            variants = []
            for v in range(VARIANTS):
                data, expect = make(v)
                path = os.path.join(work, f"{name.replace(':', '-')}-{v}.json")
                write_json(path, data)
                variants.append(Op(name, ["lattice-check", path, *cap_args],
                                   **expect))
            cases.append(variants)

        chain = L.chain(length)
        write_variants(f"chain:{length}", lambda v: (
            L.relabel(chain, L.random_seed(seed, "chain", v))[0],
            {"cap": cap_text}))
        for name in names:
            cases.append([Op(name, ["lattice-check", name, *cap_args],
                             cap=cap_text)])
        dual = L.dual(L.build(*dual_src))

        def dual_variant(v):
            data, perm = L.relabel(dual, L.random_seed(seed, "dual", v))
            return data, {"dual": dual, "perm": perm, "n_points": dual_src[1]}

        write_variants("dual-" + _case_name(dual_src), dual_variant)
        for src in bowtie_srcs:
            name = "bowtie-" + _case_name(src)
            lat = L.build(*src)

            def bowtie_variant(v, name=name, lat=lat):
                glued = L.glue_bowtie(lat, L.random_seed(seed, name, v))
                data, perm = L.relabel(glued,
                                       L.random_seed(seed, name, v, "ids"))
                return data, {"bowtie": glued, "perm": perm}

            write_variants(name, bowtie_variant)
        return {"work": work, "cases": cases, "rounds": 0}

    def check(self, state, op, rec):
        want = op.expect
        if "cap" in want:
            if rec.code != 2:
                return f"exit {rec.code}, not a refusal"
            if not re.search(r"\bcap\b", rec.stderr) or want["cap"] not in rec.stderr:
                return f"refusal does not name the cap: {rec.stderr.strip()[-160:]}"
            return None
        if "dual" in want:
            return self._check_dual(op, rec)
        return self._check_bowtie(op, rec)

    def _check_dual(self, op, rec):
        if rec.code != 1:
            return f"exit {rec.code}, expected 1"
        try:
            out = json.loads(rec.stdout)
        except ValueError:
            return "output is not JSON"
        if out.get("failure") != "NotSemimodular" or out.get("geometric"):
            return f"failure {out.get('failure')}"
        inverse = {new: old for old, new in enumerate(op.expect["perm"])}
        try:
            x, y = (inverse[i] for i in out["witness"])
        except (KeyError, TypeError, ValueError):
            return f"witness {out.get('witness')}"
        # in the dual of a partition lattice the rank is blocks - 1,
        # the meet is the partition join and the join the partition meet
        parts = op.expect["dual"][3]
        p, q = parts[x], parts[y]
        n = op.expect["n_points"]
        rank = len(p) - 1 + len(q) - 1
        if (_partition_join(p, q, n) - 1) + (_partition_meet(p, q) - 1) <= rank:
            return f"witness {out['witness']} is semimodular"
        return None

    def _check_bowtie(self, op, rec):
        if rec.code != 2:
            return f"exit {rec.code}, expected 2"
        found = WITNESS.search(rec.stderr)
        if not found:
            return f"no witness pair: {rec.stderr.strip()[-160:]}"
        inverse = {new: old for old, new in enumerate(op.expect["perm"])}
        try:
            x, y = inverse[int(found[1])], inverse[int(found[2])]
        except KeyError:
            return f"witness pair ({found[1]}, {found[2]}) out of range"
        n, covers, _rank, _meta = op.expect["bowtie"]
        down, _ = L.order_of(n, covers)
        if L.has_join(down, x, y):
            return f"witness pair ({found[1]}, {found[2]}) has a join"
        return None


# -- sieve-bounds ------------------------------------------------------------------------

SIEVE_SIZES = {
    # lattices, multiset size, canonical Dowling instance (n, m, ks)
    "full": (["boolean:10", "partition:7", "dowling:5:3"], 2500,
             (5, 3, [1, 2, 3, 4])),
    "tiny": (["boolean:5", "partition:5", "dowling:3:2"], 60,
             (3, 2, [1, 2])),
}


def sieve_setup(size):
    """Import geomsieve, build the sieve lattices and warm their bottom
    Mobius tables.  Returns (seconds, modules, lattices)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from geomsieve import dowling, generators, sieve

    lats = {}
    for name in SIEVE_SIZES[size][0]:
        lat = generators.parse_named(name)
        lat.mobius_table(lat.bottom)
        lats[name] = lat
    return time.perf_counter() - t0, (dowling, sieve), lats


def _parse_label(label):
    """geomsieve block notation -> list of blocks of (element, exponent);
    partition labels have no exponents."""
    blocks = []
    for text in label.split("|"):
        block = []
        for item in text.split(","):
            elem, _, exp = item.partition("^")
            block.append((int(elem), int(exp or 0)))
        blocks.append(block)
    return blocks


def _random_tree(rng, points, labels):
    """Edges (u, v, g) of a random labelled spanning tree on the points."""
    order = list(points)
    rng.shuffle(order)
    return [(min(v, u), max(v, u), rng.randrange(labels))
            for i, v in enumerate(order[1:], 1)
            for u in [order[rng.randrange(i)]]]


class SieveBounds:
    """In-process sieve runs on seeded instances over prebuilt lattices."""

    def setup(self, seed, work, size):
        seconds, (dowling, sieve), lats = sieve_setup(size)
        self.dowling, self.sieve = dowling, sieve
        oracle = {}
        for name, lat in lats.items():
            down, rank = L.order_of(lat.n_elems, lat.covers)
            atoms = [y for y in range(lat.n_elems) if rank[y] == 1]
            kind, *params = name.split(":")
            by_label = {}     # (u, v, label) -> atom merging u and v
            for a in atoms if kind != "boolean" else []:
                blocks = _parse_label(lat.labels[a])
                if sum(map(len, blocks)) < int(params[0]):
                    continue      # a Dowling atom moving a point to zero
                (u, gu), (v, gv) = next(b for b in blocks if len(b) == 2)
                m = int(params[1]) if kind == "dowling" else 1
                by_label[(u, v, (gv - gu) % m)] = a
            oracle[name] = (lat, down, rank, sum(1 << a for a in atoms),
                            by_label)
        return {"seconds": seconds, "lats": oracle, "size": size,
                "work": work}

    def round(self, state, rng):
        names, a_size, (cn, cm, ks) = SIEVE_SIZES[state["size"]]
        ops = []
        for name in names:
            lat, _down, _rank, _atom_mask, by_label = state["lats"][name]
            r = lat.top_rank
            kind, *params = name.split(":")
            for t_size in range(r - 3, r):
                if kind == "boolean":
                    T = [1 << e for e in rng.sample(range(r), t_size)]
                else:
                    n_points = int(params[0])
                    labels = int(params[1]) if kind == "dowling" else 1
                    edges = _random_tree(
                        rng, rng.sample(range(n_points), t_size + 1), labels)
                    T = [by_label[e] for e in edges]
                A = [rng.randrange(lat.n_elems) for _ in range(a_size)]
                ops.append(Op(f"{name}|T|={t_size}", lattice=name, A=A, T=T))
        for k in ks:
            ops.append(Op(f"canonical:{cn}:{cm}:{k}", canonical=(cn, cm, k),
                          lattice=f"dowling:{cn}:{cm}"))
        rng.shuffle(ops)
        return ops

    def instance(self, state, op):
        if "canonical" in op.expect:
            n, m, k = op.expect["canonical"]
            return self.dowling.dowling_sieve_instance(n, m, k, n_cap=n,
                                                       m_cap=m)
        lat = state["lats"][op.expect["lattice"]][0]
        r = lat.top_rank
        f = [Fraction(1, s + 1) for s in range(r + 1)]
        return self.sieve.SieveInstance(lattice=lat, A=op.expect["A"],
                                        T=op.expect["T"], f=f,
                                        X=len(op.expect["A"]))

    def run(self, state, op, tracer=None, during=None):
        """``during`` is not called: the op runs in this process."""
        inst = self.instance(state, op)
        if tracer is None:
            c0 = time.process_time()
            t0 = time.perf_counter()
            answer = self._op(inst)
            wall = time.perf_counter() - t0
            return Record(wall, answer=(inst, answer),
                          cpu=time.process_time() - c0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            answer = tracer.span("op", self._op, inst)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        layers = layer_times(tracer.dump())
        layers["interval_repeats"] = tracer.interval_repeats
        return Record(wall, answer=(inst, answer), layers=layers)

    def _op(self, inst):
        sieve = self.sieve
        exact = sieve.sifted_count_exact(inst)
        main = sieve.sieve_main_term(inst)
        err = sieve.sieve_error_bound(inst)
        rank_tau = inst.lattice.rank[inst.tau]
        bounds = [sieve.brun_bounds(inst, c)
                  for c in range(math.ceil(rank_tau / 2) + 2)]
        return exact, main, err, bounds

    def check(self, state, op, rec):
        inst, (exact, main, err, bounds) = rec.answer
        lat, down, rank, atom_mask, _ = state["lats"][op.expect["lattice"]]
        t_mask = sum(1 << t for t in inst.T)
        uppers = [y for y in range(lat.n_elems) if down[y] & t_mask == t_mask]
        tau = min(uppers, key=rank.__getitem__)
        if inst.tau != tau:
            return f"tau {inst.tau}, expected {tau}"
        below_tau = down[tau] & atom_mask
        want = sum(1 for a in inst.A if not down[a] & below_tau)
        if "canonical" in op.expect:
            n, m, k = op.expect["canonical"]
            closed = L.r_dowling_number(m, 1 + m * k, n - k)
            if closed != want:
                return f"oracle {want} != closed form {closed}"
        if op.expect["lattice"].startswith("boolean"):
            bitmask = sum(1 for a in inst.A if not a & tau)
            if bitmask != want:
                return f"oracle {want} != bitmask count {bitmask}"
        if exact != want:
            return f"sifted count {exact}, expected {want}"
        w = L.interval_whitney(down, rank, tau)
        n = lat.top_rank
        if main != inst.X * sum(inst.f[n - k] * w[k] for k in range(len(w))):
            return f"main term {main}"
        if err != sum((n - k) * inst.f[n - k] * abs(w[k])
                      for k in range(len(w))):
            return f"error bound {err}"
        for cutoff, (lower, upper) in enumerate(bounds):
            if not lower <= exact <= upper:
                return f"cutoff {cutoff}: {lower} <= {exact} <= {upper} fails"
            if 2 * cutoff >= rank[tau] and not lower == exact == upper:
                return f"cutoff {cutoff}: bounds not tight"
        return None


WORKLOADS = {
    "lattice-check": LatticeCheck,
    "sieve-bounds": SieveBounds,
    "verify-all": VerifyAll,
    "refuse": Refuse,
}

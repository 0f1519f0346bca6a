"""Spans around the calls into geomsieve's public functions.

The wrappers are installed from outside the package: each public
function named in TRACED is replaced, in every loaded geomsieve module
that refers to it, by a wrapper that records a span (function, start,
end, parent span).  Spans stay in memory until the caller writes them
out.  ``uninstall`` puts the originals back.

Functions that a later version of the package drops are skipped, so the
same benchmark runs against it; their metrics then read zero.
"""

import importlib
import sys
import time

# (module, attribute or Class.method) -> span name
TRACED = [
    ("generators", "parse_named"),
    ("generators", "boolean_lattice"),
    ("generators", "partition_lattice"),
    ("generators", "chain_lattice"),
    ("generators", "divisor_lattice"),
    ("generators", "set_partitions"),
    ("poset", "build_lattice"),
    ("poset", "FiniteLattice.mobius_table"),
    ("poset", "FiniteLattice.is_geometric"),
    ("poset", "FiniteLattice.interval"),
    ("_kernels", "transitive_closure"),
    ("_kernels", "scan_pairs"),
    ("sieve", "sifted_count_exact"),
    ("sieve", "count_above"),
    ("sieve", "sieve_main_term"),
    ("sieve", "sieve_error_bound"),
    ("sieve", "brun_bounds"),
    ("brun", "verify_brun"),
    ("brun", "alternating_partial_sums_check"),
    ("matroid", "Matroid.flats"),
    ("matroid", "flats_lattice"),
    ("matroid", "char_poly"),
    ("matroid", "mobius_via_closure"),
    ("dowling", "build_Qn"),
    ("dowling", "whitney_first_table"),
    ("dowling", "whitney_second_table"),
    ("dowling", "dowling_number"),
    ("dowling", "r_dowling_number"),
    ("dowling", "shifted_convolution"),
    ("dowling", "conv_series"),
    ("dowling", "conv_orthogonality_check"),
    ("dowling", "conv_equals_rwhitney_check"),
    ("dowling", "dowling_sieve_closed_form"),
    ("asym", "solve_delta"),
    ("asym", "compare_exact"),
]

TRIANGLES = {f"dowling.{name}" for name in (
    "whitney_first_table", "whitney_second_table", "dowling_number",
    "r_dowling_number", "shifted_convolution", "conv_series",
    "conv_orthogonality_check", "conv_equals_rwhitney_check",
    "dowling_sieve_closed_form")}
GENERATORS = {f"generators.{attr}" for mod, attr in TRACED
              if mod == "generators"}

# per-layer metric -> (kind, span names); "self" sums self time,
# "total" sums the time of the outermost span of the group
TIME_METRICS = {
    "cli.self_s": ("self", {"cli"}),
    "generators.self_s": ("self", GENERATORS),
    "generators.parse_named_s": ("total", {"generators.parse_named"}),
    "poset.build_lattice.self_s": ("self", {"poset.build_lattice"}),
    "kernels.transitive_closure_s": ("total", {"_kernels.transitive_closure"}),
    "kernels.scan_pairs_s": ("total", {"_kernels.scan_pairs"}),
    "poset.mobius_table_s": ("total", {"poset.FiniteLattice.mobius_table"}),
    "poset.is_geometric_s": ("total", {"poset.FiniteLattice.is_geometric"}),
    "poset.interval_s": ("total", {"poset.FiniteLattice.interval"}),
    "sieve.count_above_s": ("total", {"sieve.count_above"}),
    "sieve.brun_bounds.self_s": ("self", {"sieve.brun_bounds"}),
    "sieve.sifted_count_exact_s": ("total", {"sieve.sifted_count_exact"}),
    "sieve.main_term_s": ("total", {"sieve.sieve_main_term"}),
    "sieve.error_bound_s": ("total", {"sieve.sieve_error_bound"}),
    "brun.verify_brun_s": ("total", {"brun.verify_brun"}),
    "brun.alternating_partial_sums_check_s": (
        "total", {"brun.alternating_partial_sums_check"}),
    "matroid.flats_s": ("total", {"matroid.Matroid.flats"}),
    "matroid.flats_lattice.self_s": ("self", {"matroid.flats_lattice"}),
    "matroid.char_poly_s": ("total", {"matroid.char_poly"}),
    "matroid.mobius_via_closure_s": ("total", {"matroid.mobius_via_closure"}),
    "dowling.build_Qn.self_s": ("self", {"dowling.build_Qn"}),
    "dowling.triangles_s": ("total", TRIANGLES),
    "asym.solve_delta_s": ("total", {"asym.solve_delta"}),
    "asym.compare_exact_s": ("total", {"asym.compare_exact"}),
}

COUNT_METRICS = [
    "poset.build_lattice.calls",
    "poset.build_lattice.elements",
    "poset.build_lattice.covers",
    "poset.mobius_table.calls",
    "poset.interval.calls",
    "poset.leq.calls",
    "sieve.count_above.calls",
]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names = []
        self.spans = []        # [name id, start, end, parent span index]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.intervals_seen = set()
        self.interval_repeats = 0
        self._stack = [-1]
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self._timed(self._name_id(name), fn, args, kwargs)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _timed(self, name_id, fn, args, kwargs):
        spans = self.spans
        me = len(spans)
        spans.append([name_id, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(me)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            spans[me][2] = time.perf_counter()

    def _wrap(self, name, original):
        name_id = self._name_id(name)
        timed = self._timed
        before = self._before.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            return timed(name_id, original, args, kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # counters, taken before the call so that calls that raise count too

    def _before_build(self, args):
        n_elems, covers = (tuple(args) + (0, ()))[:2]
        self.counts["poset.build_lattice.calls"] += 1
        self.counts["poset.build_lattice.elements"] += n_elems
        self.counts["poset.build_lattice.covers"] += len(covers)

    def _before_interval(self, args):
        self.counts["poset.interval.calls"] += 1
        key = (id(args[0]), args[1], args[2])
        if key in self.intervals_seen:
            self.interval_repeats += 1
        self.intervals_seen.add(key)

    def _before_mobius(self, args):
        self.counts["poset.mobius_table.calls"] += 1

    def _before_count_above(self, args):
        self.counts["sieve.count_above.calls"] += 1

    _before = {
        "poset.build_lattice": _before_build,
        "poset.FiniteLattice.interval": _before_interval,
        "poset.FiniteLattice.mobius_table": _before_mobius,
        "sieve.count_above": _before_count_above,
    }

    def install(self):
        """Wrap every traced function that exists in the loaded package."""
        loaded = [m for k, m in list(sys.modules.items())
                  if k == "geomsieve" or k.startswith("geomsieve.")]
        for mod_name, attr in TRACED:
            try:
                mod = importlib.import_module(f"geomsieve.{mod_name}")
            except ImportError:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            if owner_name:
                self._set(owner, fn_name, wrapper)
                continue
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        poset = sys.modules.get("geomsieve.poset")
        if poset is not None and hasattr(poset.FiniteLattice, "leq"):
            leq = poset.FiniteLattice.leq
            counts = self.counts

            def counted_leq(lat, x, y):
                counts["poset.leq.calls"] += 1
                return leq(lat, x, y)

            self._set(poset.FiniteLattice, "leq", counted_leq)

    def _set(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def dump(self):
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts,
                "interval_repeats": self.interval_repeats}


def layer_times(dump):
    """Per-layer seconds and counts from one dump, plus the summed self
    time of every span (which must not exceed the op's wall time)."""
    names = dump["names"]
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for metric, (kind, group) in TIME_METRICS.items():
        total = 0.0
        for i, (name_id, start, end, parent) in enumerate(spans):
            if names[name_id] not in group:
                continue
            if kind == "self":
                total += end - start - child_time[i]
                continue
            p = parent
            while p >= 0 and names[spans[p][0]] not in group:
                p = spans[p][3]
            if p < 0:
                total += end - start
        out[metric] = total
    out.update(dump["counts"])
    out["self_sum_s"] = sum(end - start - child_time[i]
                            for i, (_n, start, end, _p) in enumerate(spans))
    return out

"""Named end-to-end checks over a fixed instance zoo.

Each check exercises one verified statement at full scale and returns a
CheckResult; run_checks() drives them for the CLI and the acceptance
tests.  The classical oracles (the Stirling triangles here, and the
Bell triangle with which generators sizes partition lattices) are
coded from their own recurrences, independent of the Whitney-triangle
recurrences they are compared against.
"""

import random
import time
from collections import namedtuple
from functools import lru_cache
from itertools import chain

from . import asym, dowling, generators, matroid, sieve
from .brun import (
    alternating_partial_sums_check,
    is_log_concave,
    is_unimodal,
    verify_brun,
)
from .errors import GeomsieveError
from .scopes import SCOPES

__all__ = ["CheckResult", "run_checks", "SCOPES", "CHECKS"]

_SEED = 0x5eed


CheckResult = namedtuple("CheckResult", "name ok detail seconds")


# -- instance zoo ------------------------------------------------------------

@lru_cache(maxsize=None)
def zoo_lattices(fast=False):
    """The geometric-lattice zoo: named (label, lattice) pairs."""
    out = []
    for n in range(1, 7 if fast else 9):
        out.append((f"boolean:{n}", generators.boolean_lattice(n)))
    for n in range(1, 6 if fast else 8):
        out.append((f"partition:{n}", generators.partition_lattice(n)))
    for n, m in _dowling_pairs(fast):
        if n >= 1:
            out.append((f"dowling:{n}:{m}", dowling.build_Qn(n, m)))
    for name, mat in zoo_matroids(fast):
        out.append((f"flats:{name}", matroid.flats_lattice(mat)))
    return tuple(out)


@lru_cache(maxsize=None)
def zoo_matroids(fast=False):
    """Simple matroids: uniforms, the free matroid U_{1,1}, K_4, K_5."""
    out = [("uniform:1:1", matroid.Matroid.uniform(1, 1))]
    top = 6 if fast else 9
    for n in range(2, top):
        for k in range(2, n + 1):
            out.append((f"uniform:{k}:{n}", matroid.Matroid.uniform(k, n)))
    out.append(("graphic:k4", matroid.Matroid.complete_graphic(4)))
    if not fast:
        out.append(("graphic:k5", matroid.Matroid.complete_graphic(5)))
    return tuple(out)


def _dowling_pairs(fast):
    """The (n, m) of the Dowling lattices Q_n(Z_m) behind the sieve
    instances; the zoo takes those with n >= 1."""
    pairs = [(n, m) for n in range(4 if fast else 5)
             for m in range(1, 3 if fast else 4)]
    return pairs if fast else pairs + [(5, 2)]


@lru_cache(maxsize=None)
def _dowling_instances(fast=False):
    out = []
    for n, m in _dowling_pairs(fast):
        for k in range(n + 1):
            out.append((n, m, k, dowling.dowling_sieve_instance(n, m, k)))
    return tuple(out)


# -- the checks --------------------------------------------------------------

def _zoo_brun(fast):
    """(None, reports) with one (name, lattice, BrunReport) per zoo
    lattice, or (detail, None) naming the first lattice verify_brun
    refuses."""
    reports = []
    for name, lat in zoo_lattices(fast):
        try:
            reports.append((name, lat, verify_brun(lat)))
        except GeomsieveError as exc:
            return f"{name}: {exc}", None
    return None, reports


def check_brun_zoo(fast=False):
    """Rank-truncated Mobius sums alternate in sign on every zoo
    lattice, with exact integers."""
    refusal, reports = _zoo_brun(fast)
    if refusal:
        return False, refusal
    return True, f"{len(reports)} lattices verified"


def check_alternating_sequences(fast=False):
    """Sequence-level partial-sum checker on randomized symmetrized
    unimodal sequences, and agreement with the lattice-level verifier
    on the zoo."""
    rng = random.Random(_SEED)
    trials = 200 if fast else 1000
    for i in range(trials):
        half = sorted(rng.randint(0, 30)
                      for _ in range(rng.randint(1, 12)))
        seq = half + half[::-1]
        if rng.random() < 0.3:
            seq = [0] * rng.randint(1, 3) + seq
        if rng.random() < 0.3:
            seq = seq + [0] * rng.randint(1, 3)
        try:
            alternating_partial_sums_check(seq)
        except GeomsieveError as exc:
            return False, f"trial {i}: {exc}"
    refusal, reports = _zoo_brun(fast)
    if refusal:
        return False, refusal
    for name, lat, report in reports:
        if lat.top_rank == 0:
            # one-element lattice: the alternating sum is 1, so the
            # sequence-level hypotheses do not apply
            continue
        absw = [abs(w) for w in report.whitney_first]
        if alternating_partial_sums_check(absw) != report.partial_sums:
            return False, f"{name}: sequence and lattice verdicts differ"
    return True, f"{trials} random sequences plus zoo agreement"


def check_matroid_lattice_consistency(fast=False):
    """char_poly == lattice Whitney numbers and closure-route Mobius ==
    lattice Mobius, for every flat of every simple zoo matroid; both
    answers of a matroid come from one walk over its subsets."""
    flats_checked = 0
    lattices = dict(zoo_lattices(fast))
    for name, mat in zoo_matroids(fast):
        lat = lattices[f"flats:{name}"]
        cp, mobius = matroid.closure_mobius(mat)
        if cp != lat.whitney_first():
            return False, (f"{name}: char_poly {cp} != "
                           f"lattice {lat.whitney_first()}")
        table = lat.mobius_table(lat.bottom)
        if mobius != table:
            i = next(i for i, (a, b) in enumerate(zip(mobius, table)) if a != b)
            flat = sorted(mat.flats()[i])
            return False, f"{name}: Mobius mismatch at flat {flat}"
        flats_checked += len(table)
    return True, f"{flats_checked} flats across {len(zoo_matroids(fast))} matroids"


def check_log_concavity(fast=False):
    """|w| sequences from the zoo and from first-kind triangle rows are
    log-concave and unimodal."""
    nmax = 20 if fast else 40
    rows = chain(
        ((name, lat.whitney_first()) for name, lat in zoo_lattices(fast)),
        ((f"triangle m={m} row {n}", row) for m in range(1, 6)
         for n, row in enumerate(dowling.whitney_first_rows(m, nmax))))
    count = 0
    for count, (label, row) in enumerate(rows, 1):
        absrow = [abs(v) for v in row]
        if not is_log_concave(absrow)[0]:
            return False, f"{label}: log-concavity fails"
        if not is_unimodal(absrow)[0]:
            return False, f"{label}: unimodality fails"
    return True, f"{count} sequences checked"


def check_orthogonality(fast=False):
    """The two Whitney triangles are inverse matrices."""
    nmax = 12 if fast else 25
    for m in range(1, 6):
        ok, witness = dowling.conv_orthogonality_check(m, nmax)
        if not ok:
            return False, f"m={m}: fails at {witness}"
    return True, f"m <= 5, indices <= {nmax}, exact"


def check_convolution_grid(fast=False):
    """Shifted convolutions match both the generating function and the
    shifted second-kind triangle on a grid, and vanish for t < n."""
    m_top, n_top, t_top, s_max = (2, 5, 9, 10) if fast else (4, 8, 12, 20)
    for m in range(1, m_top + 1):
        ok, witness = dowling.conv_grid_check(m, n_top, t_top, s_max)
        if not ok:
            return False, "mismatch at m={}, n={}, t={}, s={}".format(
                m, *witness)
    zeros = m_top * n_top * (n_top + 1) // 2 * (s_max + 1)  # t < n <= t_top
    triples = m_top * (n_top + 1) * (t_top + 1) * (s_max + 1) - zeros
    return True, f"{triples} grid triples agree, {zeros} vanish below the diagonal"


def check_sieve_closed_form(fast=False):
    """Exact sifted counts on Dowling instances equal the shifted
    Dowling number D_{m,1+mk}(n-k); includes the 18-count spot value."""
    for n, m, k, inst in _dowling_instances(fast):
        exact = sieve.sifted_count_exact(inst)
        closed = dowling.dowling_sieve_closed_form(m, n, k)
        if exact != closed:
            return False, (f"n={n}, m={m}, k={k}: "
                           f"count {exact} != closed form {closed}")
    if not fast:
        spot = dowling.dowling_sieve_closed_form(2, 3, 1)
        if spot != 18:
            return False, f"spot value D_{{2,3}}(2) = {spot} != 18"
    return True, f"{len(_dowling_instances(fast))} instances"


def check_brun_bounds(fast=False):
    """Truncation bounds sandwich the exact count at every cutoff and
    collapse to it once the truncation rank reaches rank(tau); every
    cutoff of an instance is read from one bound profile."""
    checked = 0
    for n, m, k, inst in _dowling_instances(fast):
        exact = sieve.sifted_count_exact(inst)
        rank_tau = inst.lattice.rank[inst.tau]
        profile = sieve.brun_profile(inst)
        for cutoff in range(rank_tau // 2 + 3):
            lower, upper = profile[min(cutoff, len(profile) - 1)]
            if not lower <= exact <= upper:
                return False, (f"n={n}, m={m}, k={k}, cutoff {cutoff}: "
                               f"{lower} !<= {exact} !<= {upper}")
            if 2 * cutoff >= rank_tau and not lower == exact == upper:
                return False, (f"n={n}, m={m}, k={k}, cutoff {cutoff}: "
                               "bounds not tight past rank(tau)")
            checked += 1
    return True, f"{checked} (instance, cutoff) pairs"


def check_saddle(fast=False):
    """Saddle-point approximation error shrinks along n and is below
    5% by the last point; one exact stream per m gives the ladders
    (m, 1) and (m, 1 + m)."""
    ns = (50, 100, 200) if fast else (50, 100, 200, 400)
    exact = {}
    for m in (1, 2):
        # diagonal k ends in D_{m,1+m}(k-1), D_{m,1}(k): one stream to
        # max(ns) + 1 serves the ladders (m, 1) and (m, 1 + m)
        ends = [diag[-2:] for diag in dowling._diagonals(m, 1, max(ns) + 1)]
        exact[m, 1] = [ends[n][-1] for n in ns]
        exact[m, 1 + m] = [ends[n + 1][0] for n in ns]
    details = []
    for m, r in ((1, 1), (2, 1), (1, 2), (2, 3)):
        errs = [float(asym._compare(asym.saddle_values(m, r, n), d).rel_err)
                for n, d in zip(ns, exact[m, r])]
        if not all(a > b for a, b in zip(errs, errs[1:])):
            return False, f"(m,r)=({m},{r}): errors not decreasing {errs}"
        if (m, r) == (1, 1) and not errs[-1] < 0.05:
            return False, f"final error {errs[-1]} >= 0.05"
        details.append(f"({m},{r}) err {errs[0]:.2e}->{errs[-1]:.2e}")
    return True, "; ".join(details)


def _stirling(nmax, coeff):
    """Rows 0..nmax of T(n, k) = T(n-1, k-1) + coeff(n, k) T(n-1, k):
    coeff -(n-1) gives the signed first kind, k the second kind."""
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = [0] + rows[-1] + [0]
        rows.append([prev[k] + coeff(n, k) * prev[k + 1]
                     for k in range(n + 1)])
    return rows


def check_classical_oracles(fast=False):
    """m = 1 collapses to the classics: D_1(n) = Bell(n+1),
    |w_1(n,k)| = |s(n+1,k+1)|, W_1(n,k) = S(n+1,k+1)."""
    nmax = 15 if fast else 30
    bell = list(generators._bell_numbers(nmax + 1))
    s1 = _stirling(nmax + 1, lambda n, k: 1 - n)
    s2 = _stirling(nmax + 1, lambda n, k: k)
    streams = zip(dowling._dowling_numbers(1, 1, nmax),
                  dowling.whitney_first_rows(1, nmax),
                  dowling.whitney_second_rows(1, 1, nmax))
    for n, (d1, w1, W1) in enumerate(streams):
        if d1 != bell[n + 1]:
            return False, f"D_1({n}) != Bell({n + 1})"
        for k in range(n + 1):
            if abs(w1[k]) != abs(s1[n + 1][k + 1]):
                return False, f"|w_1({n},{k})| != |s({n + 1},{k + 1})|"
            if W1[k] != s2[n + 1][k + 1]:
                return False, f"W_1({n},{k}) != S({n + 1},{k + 1})"
    return True, f"n <= {nmax} against Bell and Stirling triangles"


CHECKS = {
    "brun-zoo": check_brun_zoo,
    "alternating-sums": check_alternating_sequences,
    "matroid-lattice-consistency": check_matroid_lattice_consistency,
    "log-concavity-unimodality": check_log_concavity,
    "whitney-orthogonality": check_orthogonality,
    "shifted-convolution-grid": check_convolution_grid,
    "sieve-closed-form": check_sieve_closed_form,
    "brun-bounds-sandwich": check_brun_bounds,
    "saddle-asymptotics": check_saddle,
    "classical-oracles": check_classical_oracles,
}


def run_checks(scope="all", fast=False):
    """Run the selected checks in name order and return their results."""
    if scope not in SCOPES:
        raise ValueError(
            f"unknown scope {scope!r}; choose from {sorted(SCOPES)}")
    results = []
    for name in sorted(SCOPES[scope]):
        t0 = time.perf_counter()
        try:
            ok, detail = CHECKS[name](fast=fast)
        except GeomsieveError as exc:
            ok, detail = False, f"error: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail,
                                   seconds=time.perf_counter() - t0))
    return results

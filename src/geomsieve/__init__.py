"""Exact combinatorics of geometric lattices: Mobius functions,
sign-alternation inequalities, a lattice sieve with two-sided truncated
bounds, Dowling lattices and their Whitney triangles, and saddle-point
asymptotics for the associated counting numbers.

Everything except the asymptotics module computes with exact integers
and fractions, in pure Python with no build step.  Lattices are stored
as bitmask rows of their order relation and certified on construction
from pairs of covers (see geomsieve.poset).

The public API lives in the submodules, each listed in its own __all__
(for example geomsieve.poset.build_lattice or geomsieve.sieve.brun_bounds);
the package re-exports nothing, so importing one submodule loads only
what that submodule needs.
"""

__version__ = "0.1.0"

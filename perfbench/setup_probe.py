"""One cold set-up of a workload in a fresh interpreter.

Usage: setup_probe.py WORKLOAD SIZE SEED WORKDIR

Imports geomsieve and does the workload's set-up: inputs written to
WORKDIR, or for sieve-bounds the lattices built and warmed.  run.py times
this whole process for its setup_s samples.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, sieve_setup  # noqa: E402

if __name__ == "__main__":
    name, size, seed, work = sys.argv[1:5]
    if name == "sieve-bounds":
        sieve_setup(size)
    else:
        import geomsieve.cli  # noqa: F401
        WORKLOADS[name]().setup(int(seed), work, size)

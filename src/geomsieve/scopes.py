"""The scopes of verify-all: which named checks each one runs.

The table lives apart from geomsieve.verify so that the command-line
parser can offer the scope names without loading the checks and every
module they exercise.  The scopes other than "all" partition the checks.
"""

__all__ = ["SCOPES"]

SCOPES = {
    "lattice": ["brun-zoo"],
    "sequences": ["alternating-sums"],
    "matroid": ["matroid-lattice-consistency", "log-concavity-unimodality"],
    "dowling": ["whitney-orthogonality", "shifted-convolution-grid",
                "classical-oracles"],
    "sieve": ["sieve-closed-form", "brun-bounds-sandwich"],
    "asym": ["saddle-asymptotics"],
}
SCOPES["all"] = sorted(name for names in SCOPES.values() for name in names)

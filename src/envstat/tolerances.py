"""The package's four fixed tolerances.

Three rungs: construction invariants are the tightest, decomposition and
restoration checks sit in the middle, physics-level comparisons are the
loosest; evenness bounds the relative spread of squared Schmidt weights.
Everything that compares floats reads one of these constants.  They are
not parameters: nothing takes a tolerance as an argument or stores one,
and a scenario config may only restate these values.
"""

CONSTRUCTION = 1e-12   # norms, traces, Hermiticity at build time
DECOMPOSITION = 1e-10  # SVD/restoration/orthonormality checks
PHYSICS = 1e-8         # physical comparisons (entropies, spectra)
EVENNESS = 1e-8        # relative spread of squared Schmidt weights

"""envstat: quantum statistical mechanics without ensembles.

Four layers: `hilbert` holds the dense linear-algebra substrate,
`envariance` builds and verifies the entanglement symmetries behind the
Born rule, `equilibrium` turns even entangled states into microcanonical
and canonical equilibrium, and `szilard` runs the one-molecule engine with
full thermodynamic ledgers.  `cli` exposes all of it as deterministic,
report-emitting scenarios.
"""

__version__ = "0.1.0"

from . import envariance, equilibrium, hilbert, szilard

__all__ = ["hilbert", "envariance", "equilibrium", "szilard", "__version__"]

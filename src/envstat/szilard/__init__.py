"""One-molecule engine: spectra, thermal states, measurement, ledgers."""

from .config import EngineConfig
from .engine import (
    EngineState,
    MeasurementOutcome,
    barrier_thermal_state,
    measure_side,
    split_partition_function,
    thermal_state,
    z_boltzmann_gas,
)
from .ledger import (
    ClassicalCycleResult,
    FreeEnergyLedger,
    LedgerEntry,
    classical_ensemble_cycle,
    free_energy_ledger,
)
from .spectrum import (
    BoxSpectrum,
    SplitSpectrum,
    box_spectrum,
    fd_pair_energies,
    split_spectrum,
)

__all__ = [
    "EngineConfig",
    "BoxSpectrum",
    "SplitSpectrum",
    "box_spectrum",
    "split_spectrum",
    "fd_pair_energies",
    "EngineState",
    "MeasurementOutcome",
    "thermal_state",
    "z_boltzmann_gas",
    "split_partition_function",
    "barrier_thermal_state",
    "measure_side",
    "LedgerEntry",
    "FreeEnergyLedger",
    "free_energy_ledger",
    "ClassicalCycleResult",
    "classical_ensemble_cycle",
]

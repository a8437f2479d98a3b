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
    LedgerChecks,
    LedgerEntry,
    SampleLedger,
    classical_ensemble_cycle,
    free_energy_ledger,
)
from .spectrum import (
    BoxSpectrum,
    SplitPair,
    SplitSpectrum,
    box_spectrum,
    fd_pair_energies,
    lr_block_map,
    pair_wavefunctions,
    split_spectrum,
)

__all__ = [
    "EngineConfig",
    "BoxSpectrum",
    "SplitPair",
    "SplitSpectrum",
    "box_spectrum",
    "split_spectrum",
    "fd_pair_energies",
    "pair_wavefunctions",
    "lr_block_map",
    "EngineState",
    "MeasurementOutcome",
    "thermal_state",
    "z_boltzmann_gas",
    "split_partition_function",
    "barrier_thermal_state",
    "measure_side",
    "LedgerEntry",
    "LedgerChecks",
    "FreeEnergyLedger",
    "free_energy_ledger",
    "SampleLedger",
    "ClassicalCycleResult",
    "classical_ensemble_cycle",
]

"""Free-energy, entropy, and work bookkeeping of the engine cycle.

The quantum cycle is: insert the barrier isothermally, measure which side,
expand the piston isothermally, erase the record.  Every state point is
evaluated from exact partition sums; the closed-form Boltzmann-gas
relations are carried alongside as checks and only claimed in the
high-temperature regime.  The classical comparator runs the same cycle on
sampled point particles, where the free-energy jump happens at insertion
(for free, against the gas law) instead of at measurement.

Sign conventions: work_on is work done on the gas, heat_in is heat absorbed
by the gas, so every step obeys dU = heat_in + work_on identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import RegimeError
from ..tolerances import DEFAULT_TOLS, Tolerances
from .config import EngineConfig
from .engine import (
    barrier_thermal_state,
    measure_side,
    split_partition_function,
    thermal_state,
)
from .spectrum import box_spectrum, split_spectrum

__all__ = [
    "LedgerEntry",
    "LedgerChecks",
    "FreeEnergyLedger",
    "free_energy_ledger",
    "SampleLedger",
    "ClassicalCycleResult",
    "classical_ensemble_cycle",
]

HIGH_T_EPS_BETA = 0.01  # closed-form comparisons are only claimed below this


@dataclass(frozen=True)
class LedgerEntry:
    """State point after a cycle step plus the step's energy flows."""

    step: str
    free_energy: float
    entropy: float
    internal_energy: float
    work_on: float
    heat_in: float

    def first_law_residual(self, previous: "LedgerEntry") -> float:
        return (self.internal_energy - previous.internal_energy
                - self.heat_in - self.work_on)


@dataclass(frozen=True)
class LedgerChecks:
    """Comparisons against the closed-form engine relations.

    The insertion entries compare the Boltzmann-gas accounting (free energy
    shift ln(L/(L-d)) in kT units, purely the volume effect) against the
    O(d/L) bound; the exact-sum shift is reported next to it and also
    carries the spectrum-discreteness offset ~ lambda_dB/(2L), which decays
    with eps*beta.  regime_ok records whether the high-temperature regime
    needed by the closed forms holds; outside it the bound is not claimed.
    """

    regime_ok: bool
    insertion_delta_a_closed_form: float
    insertion_bound: float
    insertion_delta_a_exact: float
    measurement_delta_a: float
    measurement_entropy_drop: float
    expansion_work_classical: float
    net_extracted_work: float
    net_with_erasure: float


@dataclass(frozen=True, eq=False)
class FreeEnergyLedger:
    """Per-step ledger of the quantum cycle, measurement included."""

    entries: tuple[LedgerEntry, ...]
    p_left: float
    p_right: float
    repeat_left_prob: float
    checks: LedgerChecks

    def entry(self, step: str) -> LedgerEntry:
        for e in self.entries:
            if e.step == step:
                return e
        raise KeyError(step)


def free_energy_ledger(cfg: EngineConfig,
                       tols: Tolerances = DEFAULT_TOLS) -> FreeEnergyLedger:
    """Run one quantum cycle and account every step.

    The free-energy gain of kT ln 2 appears at the measurement step: the
    barrier alone leaves the gas spread over both wells (its insertion
    shifts A only by the volume effect plus a discreteness offset), whereas
    the which-side record halves the accessible volume with no work or heat
    exchanged.  Expansion then returns the gas to the initial state,
    extracting net kT ln 2, and the erasure of the record pays it back.
    """
    beta = cfg.beta
    kt = cfg.kb * cfg.temperature

    box = box_spectrum(cfg)
    _, z0 = thermal_state(box, cfg.temperature, cfg.kb, tols)
    e_box = box.energies
    w_box = np.exp(-beta * e_box)
    u0 = float(np.sum(e_box * w_box)) / z0
    a0 = -kt * math.log(z0)
    s0 = beta * (u0 - a0)
    start = LedgerEntry("initial", a0, s0, u0, 0.0, 0.0)

    # barrier insertion: isothermal and quasistatic, so W = dA and Q = T dS
    split = split_spectrum(cfg, mode="formula")
    if split.count == 0:
        raise RegimeError(
            f"barrier height {cfg.barrier_height:g} lies below every doublet "
            "center: no level tunnels, so the split partition sum is empty")
    z1 = split_partition_function(split, beta)
    e_c, d_c = split.centers, split.deltas
    w_plus = np.exp(-beta * (e_c + d_c))
    w_minus = np.exp(-beta * (e_c - d_c))
    u1 = float(np.sum((e_c + d_c) * w_plus + (e_c - d_c) * w_minus)) / z1
    a1 = -kt * math.log(z1)
    s1 = beta * (u1 - a1)
    insert = LedgerEntry("insert-barrier", a1, s1, u1, a1 - a0, cfg.temperature * cfg.kb * (s1 - s0))

    # measurement: the left and right records are symmetric, so account L
    rho_lr = barrier_thermal_state(split, cfg.temperature, "LR", cfg.kb, tols)
    out_l, out_r = measure_side(rho_lr)
    repeat_l, _ = measure_side(out_l.post_state)
    z_l = z1 / 2.0
    pop_l = np.exp(-beta * e_c) * np.cosh(beta * d_c) / z_l
    u2 = float(np.sum(e_c * pop_l))
    a2 = -kt * math.log(z_l)
    # populations that underflow to 0 contribute 0 ln 0 = 0
    log_pop = np.log(pop_l, out=np.zeros_like(pop_l), where=pop_l > 0.0)
    s2 = float(-np.sum(pop_l * log_pop))
    # projection exchanges no heat; any energy shift is apparatus work
    measure = LedgerEntry("measure", a2, s2, u2, u2 - u1, 0.0)

    # isothermal expansion back to the bare box (piston slides to the wall,
    # then is withdrawn), closing the configuration part of the cycle
    expand = LedgerEntry("expand", a0, s0, u0, a0 - a2, cfg.temperature * cfg.kb * (s0 - s2))

    # erasure acts on the record, not the gas: Landauer cost kT ln 2 is paid
    # as work on the memory and dumped into the bath
    erase = LedgerEntry("erase", a0, s0, u0, kt * math.log(2.0), -kt * math.log(2.0))

    dl = cfg.barrier_width / cfg.box_length
    checks = LedgerChecks(
        regime_ok=cfg.eps_beta <= HIGH_T_EPS_BETA,
        insertion_delta_a_closed_form=kt * math.log(1.0 / (1.0 - dl)),
        insertion_bound=1.1 * kt * dl,
        insertion_delta_a_exact=a1 - a0,
        measurement_delta_a=a2 - a1,
        measurement_entropy_drop=s1 - s2,
        expansion_work_classical=kt * math.log(2.0),
        net_extracted_work=-(insert.work_on + measure.work_on + expand.work_on),
        net_with_erasure=-(insert.work_on + measure.work_on + expand.work_on
                           + erase.work_on),
    )
    return FreeEnergyLedger(
        entries=(start, insert, measure, expand, erase),
        p_left=out_l.probability,
        p_right=out_r.probability,
        repeat_left_prob=repeat_l.probability,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# classical comparator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleLedger:
    """Cycle bookkeeping for a single classical molecule.

    Insertion traps the point particle on one side, halving its volume with
    zero work: the free energy jumps by kT ln 2 against the gas law, and
    that is where the classical account breaks with the quantum one.
    Measurement then only reveals the side (no state change), expansion
    extracts kT ln 2, erasure pays it back; the net is identically zero.
    """

    insertion_delta_a: float
    measurement_delta_a: float
    expansion_work_extracted: float
    erasure_cost: float

    @property
    def net_work_extracted(self) -> float:
        return self.expansion_work_extracted - self.erasure_cost


@dataclass(frozen=True, eq=False)
class ClassicalCycleResult:
    """Seeded ensemble of classical cycles plus the observer-level ledger.

    ensemble_insertion_delta_a folds the observer's ignorance entropy ln 2
    into the macrostate free energy, which cancels the per-sample jump; the
    jump then reappears at measurement when the ignorance collapses.  The
    contrast fields set quantum against classical at the insertion step.
    """

    samples: int
    seed: int
    left_count: int
    per_sample: SampleLedger
    ensemble_insertion_delta_a: float
    ensemble_measurement_delta_a: float
    quantum_insertion_delta_a: float
    classical_insertion_delta_a: float

    @property
    def left_fraction(self) -> float:
        return self.left_count / self.samples

    @property
    def insertion_contrast(self) -> bool:
        """True when the classical insertion jump dwarfs the quantum one."""
        return self.classical_insertion_delta_a > 10.0 * abs(self.quantum_insertion_delta_a)


def classical_ensemble_cycle(cfg: EngineConfig, samples: int,
                             seed: int) -> ClassicalCycleResult:
    """Uniformly sampled molecule positions run through the classical cycle.

    Each sample lands uniformly in [0, L); the partition traps it on the
    side it occupies.  The partition is treated as ideally thin for the
    classical account (volume exactly halves), matching the gas-law
    idealization the cycle is scored against.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, cfg.box_length, size=samples)
    left_count = int(np.sum(x < cfg.box_length / 2.0))

    kt = cfg.kb * cfg.temperature
    ln2 = math.log(2.0)
    per_sample = SampleLedger(
        insertion_delta_a=kt * ln2,
        measurement_delta_a=0.0,
        expansion_work_extracted=kt * ln2,
        erasure_cost=kt * ln2,
    )
    dl = cfg.barrier_width / cfg.box_length
    return ClassicalCycleResult(
        samples=samples,
        seed=seed,
        left_count=left_count,
        per_sample=per_sample,
        ensemble_insertion_delta_a=kt * ln2 - kt * ln2,  # jump minus ignorance
        ensemble_measurement_delta_a=kt * ln2,
        quantum_insertion_delta_a=kt * math.log(1.0 / (1.0 - dl)),
        classical_insertion_delta_a=kt * ln2,
    )

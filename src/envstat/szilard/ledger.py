"""Free-energy, entropy, and work bookkeeping of the engine cycle.

The quantum cycle is: insert the barrier isothermally, measure which side,
expand the piston isothermally, erase the record.  Every state point is
evaluated from exact partition sums, and the ledger entries are the only
record of the cycle: step differences such as the measurement's Delta A
are read off them.  The classical comparator samples which side a point
particle lands on; its free-energy jump happens at insertion (for free,
against the gas law) instead of at measurement, and is the closed form
kT ln 2.

Sign conventions: work_on is work done on the gas, heat_in is heat absorbed
by the gas, so every step obeys dU = heat_in + work_on identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import RegimeError
from .config import EngineConfig
from .engine import barrier_thermal_state, measure_side, thermal_state
from .spectrum import box_spectrum, split_spectrum

__all__ = [
    "LedgerEntry",
    "FreeEnergyLedger",
    "free_energy_ledger",
    "ClassicalCycleResult",
    "classical_ensemble_cycle",
]


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


@dataclass(frozen=True, eq=False)
class FreeEnergyLedger:
    """Per-step ledger of the quantum cycle, measurement included.

    entries are, in order, the initial, insert-barrier, measure, expand and
    erase state points.  z_box is the bare-box partition sum behind the
    initial state point.
    """

    entries: tuple[LedgerEntry, ...]
    z_box: float
    p_left: float
    p_right: float
    repeat_left_prob: float


def free_energy_ledger(cfg: EngineConfig) -> FreeEnergyLedger:
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
    _, z0 = thermal_state(box, cfg.temperature, cfg.kb)
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
    rho_lr, z1 = barrier_thermal_state(split, cfg.temperature, cfg.kb)
    e_c, d_c = split.centers, split.deltas
    w_plus = np.exp(-beta * (e_c + d_c))
    w_minus = np.exp(-beta * (e_c - d_c))
    u1 = float(np.sum((e_c + d_c) * w_plus + (e_c - d_c) * w_minus)) / z1
    a1 = -kt * math.log(z1)
    s1 = beta * (u1 - a1)
    insert = LedgerEntry("insert-barrier", a1, s1, u1, a1 - a0, cfg.temperature * cfg.kb * (s1 - s0))

    # measurement: the left and right records are symmetric, so account L
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

    return FreeEnergyLedger(
        entries=(start, insert, measure, expand, erase),
        z_box=z0,
        p_left=out_l.probability,
        p_right=out_r.probability,
        repeat_left_prob=repeat_l.probability,
    )


# ---------------------------------------------------------------------------
# classical comparator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClassicalCycleResult:
    """How many of the seeded molecule positions landed on the left."""

    samples: int
    seed: int
    left_count: int

    @property
    def left_fraction(self) -> float:
        return self.left_count / self.samples


def classical_ensemble_cycle(cfg: EngineConfig, samples: int,
                             seed: int) -> ClassicalCycleResult:
    """Sample uniform molecule positions in [0, L) and count the left side.

    The partition traps each classical molecule on the side it occupies,
    halving its volume with no work, so every per-sample ledger entry is
    the closed form kT ln 2 or zero, and the classical-cycle report writes
    it out without sampling.  The sample decides only which side each
    molecule is on; its left fraction is the comparator's one measured
    number.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, cfg.box_length, size=samples)
    return ClassicalCycleResult(
        samples=samples,
        seed=seed,
        left_count=int(np.sum(x < cfg.box_length / 2.0)),
    )

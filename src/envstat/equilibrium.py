"""Entanglement equilibrium without ensembles.

Even states (all Schmidt weights equal) realize microcanonical equilibrium
in a single system: any unitary acting inside the even subspace of the
system can be undone by an explicitly constructed counter-evolution acting
only on the environment, so nothing observable about the system moves.
From there, the canonical Boltzmann distribution is recovered two ways:
by counting bath microstates in an energy shell, and by purifying the
Gibbs weights into an entangled pure state.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    SubspaceEscapeError,
    TruncationError,
)
from .hilbert import (
    BipartitePureState,
    DensityOperator,
    UnitaryOperator,
    _freeze,
    apply_local,
    check_density,
    check_pure_states,
    check_unitary,
    dagger,
    frobenius,
    gaussian_matrix,
    haar_stack,
    haar_unitary,
    orthonormality_defect,
    partial_trace_env,
    scale_columns,
)
from .tolerances import DECOMPOSITION, PHYSICS

_INT64_MAX = np.iinfo(np.int64).max
# complex entries per stacked array of a sweep chunk (1 MiB): memory stays
# bounded at any trial count, and a chunk still holds many small trials
_STACK_ENTRIES = 2**16

__all__ = [
    "EvenState",
    "LevelLadder",
    "CanonicalFit",
    "NoEvolutionReport",
    "make_even_state",
    "counter_evolution_for",
    "verify_no_local_evolution",
    "no_evolution_sweep",
    "reduced_shifts",
    "canonical_by_counting",
    "thermal_purification",
]


@dataclass(frozen=True, eq=False)
class EvenState:
    """Bipartite pure state whose branch weights are all 1/sqrt(K).

    Carries its construction data (branch bases and phases) so that
    degenerate-spectrum consumers never have to re-derive a Schmidt basis.
    """

    rank: int
    phases: np.ndarray
    sys_vecs: np.ndarray
    env_vecs: np.ndarray
    state: BipartitePureState

    def __post_init__(self):
        amps = self.state.amps
        check_even(self.rank, self.phases, self.sys_vecs, self.env_vecs,
                   amps @ dagger(amps))
        for name in ("phases", "sys_vecs", "env_vecs"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def dim_sys(self) -> int:
        return self.state.dim_sys

    @property
    def dim_env(self) -> int:
        return self.state.dim_env

    def reduced(self) -> DensityOperator:
        return partial_trace_env(self.state)


def make_even_state(rank: int,
                    phases=None,
                    dim_sys: int | None = None,
                    dim_env: int | None = None,
                    seed_bases: tuple[np.ndarray, np.ndarray] | None = None,
                    rng: np.random.Generator | int | None = None) -> EvenState:
    """Even state of given rank, optionally with prescribed branch bases.

    Without `seed_bases`, branch bases are drawn from the unitary-invariant
    distribution (QR of seeded complex Gaussians), so a fixed `rng` seed
    reproduces the state exactly.
    """
    if rank < 1:
        raise DimensionMismatchError("rank must be >= 1")
    dim_sys = rank if dim_sys is None else dim_sys
    dim_env = rank if dim_env is None else dim_env
    if dim_sys < rank or dim_env < rank:
        raise DimensionMismatchError("both sides need dimension >= rank")
    phases = np.zeros(rank) if phases is None else np.asarray(phases, dtype=np.float64)
    if phases.shape != (rank,):
        raise DimensionMismatchError("need one phase per branch")

    if seed_bases is not None:
        sys_vecs = np.asarray(seed_bases[0], dtype=np.complex128)[:, :rank]
        env_vecs = np.asarray(seed_bases[1], dtype=np.complex128)[:, :rank]
    else:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        sys_vecs = haar_unitary(dim_sys, rng).matrix[:, :rank]
        env_vecs = haar_unitary(dim_env, rng).matrix[:, :rank]

    state = BipartitePureState(even_amplitudes(phases, sys_vecs, env_vecs))
    return EvenState(rank, phases, sys_vecs, env_vecs, state)


# ---------------------------------------------------------------------------
# even states and their counter-evolutions, over stacks: every array carries
# a leading stack shape, and the per-state API is the stack of one
# ---------------------------------------------------------------------------

def even_amplitudes(phases: np.ndarray, sys_vecs: np.ndarray,
                    env_vecs: np.ndarray) -> np.ndarray:
    """sum_k e^{i phi_k} s_k e_k^T / sqrt(K) for each even state of a stack."""
    rank = phases.shape[-1]
    weights = np.exp(1j * phases) / np.sqrt(rank)
    return scale_columns(sys_vecs, weights) @ np.swapaxes(env_vecs, -1, -2)


def check_even(rank: int, phases, sys_vecs: np.ndarray, env_vecs: np.ndarray,
               rho: np.ndarray) -> None:
    """Branch data of a stack of even states against their reduced operators.

    rho = A A^dagger must be the normalized projector on the span of the
    system branch vectors, which must be orthonormal, as the environment's.
    """
    if sys_vecs.shape[-1] != rank or env_vecs.shape[-1] != rank:
        raise DimensionMismatchError("need one branch vector per rank")
    if np.shape(phases)[-1:] != (rank,):
        raise DimensionMismatchError("need one phase per branch")
    for vecs, side in ((sys_vecs, "system"), (env_vecs, "environment")):
        if np.max(orthonormality_defect(vecs)) > DECOMPOSITION:
            raise InvalidStateError(f"{side} branch vectors are not orthonormal")
    proj = sys_vecs @ dagger(sys_vecs)
    if np.max(np.abs(rho - proj / rank)) > DECOMPOSITION:
        raise InvalidStateError("branch weights are not all equal to 1/sqrt(K)")


def counter_evolve(phases: np.ndarray, sys_vecs: np.ndarray, env_vecs: np.ndarray,
                   amps: np.ndarray, rho: np.ndarray, u_sys: np.ndarray):
    """Counter-evolutions of a stack of even states under system unitaries.

    Takes checked even states (amplitudes `amps`, reduced operators `rho`)
    and unitaries `u_sys`, one per state.  With branch pairs (s_k, e_k) and
    phases phi_k, the rotated system basis st_l = u_sys s_l pairs with
    environment vectors et_l = sum_k e^{i phi_k} <st_l|s_k> e_k, which come
    out orthonormal whenever u_sys preserves the branch span.  Mapping e_l
    to e^{-i phi_l} et_l (identity elsewhere) then restores the composite
    exactly.  Returns (u_env, reduced_distance, restoration_distance): the
    environment unitaries, and per state the Frobenius distance between
    the reduced operators before and after u_sys and the composite's
    distance after u_sys and u_env.  Raises SubspaceEscapeError when any
    u_sys leaks outside its state's span or any restoration fails.
    """
    if u_sys.shape[-1] != amps.shape[-2]:
        raise DimensionMismatchError("system unitary has the wrong dimension")
    moved = check_pure_states(u_sys @ amps)
    rho_after = check_density(moved @ dagger(moved))
    check_density(rho)

    s, e = sys_vecs, env_vecs
    rotated = u_sys @ s
    # block-preservation: the rotated branch vectors must stay in the span
    leak = rotated - s @ (dagger(s) @ rotated)
    if np.any(frobenius(leak) > PHYSICS * np.maximum(frobenius(rotated), 1.0)):
        raise SubspaceEscapeError(
            "unitary maps the even subspace outside itself; no counter-evolution")

    overlaps = dagger(rotated) @ s                       # [l, k] = <st_l|s_k>
    partners = e @ np.swapaxes(scale_columns(overlaps, np.exp(1j * phases)), -1, -2)
    if np.max(orthonormality_defect(partners)) > DECOMPOSITION:
        raise SubspaceEscapeError(
            "rotated environment partners failed the orthonormality check")

    mapped = scale_columns(partners, np.exp(-1j * phases))
    e_dag = dagger(e)
    u_env = check_unitary(np.eye(e.shape[-2], dtype=np.complex128) - e @ e_dag
                          + mapped @ e_dag)
    restored = check_pure_states(moved @ np.swapaxes(u_env, -1, -2))
    restoration = frobenius(restored - amps)
    if np.any(restoration > DECOMPOSITION):
        raise SubspaceEscapeError("constructed counter-evolution failed to restore")
    return u_env, frobenius(rho - rho_after), restoration


def _stack_of_one(even: EvenState, u_sys: UnitaryOperator):
    amps = even.state.amps
    return counter_evolve(even.phases[None], even.sys_vecs[None], even.env_vecs[None],
                          amps[None], (amps @ dagger(amps))[None], u_sys.matrix[None])


def counter_evolution_for(even: EvenState, u_sys: UnitaryOperator) -> UnitaryOperator:
    """Environment unitary undoing an arbitrary unitary on the even subspace.

    The stack-of-one case of `counter_evolve`, which defines the
    construction and its checks.  Raises SubspaceEscapeError when u_sys
    leaks outside the span.
    """
    return UnitaryOperator(_stack_of_one(even, u_sys)[0][0])


@dataclass(frozen=True)
class NoEvolutionReport:
    """Distances gathered while checking that a system did not evolve.

    reduced_distance: Frobenius distance between the reduced system operator
    before and after the unitary (zero means nothing observable moved).
    restoration_distance: composite distance after the best undoing action
    on the environment (the explicit counter-evolution for an even state,
    the optimal environment unitary otherwise).
    """

    reduced_distance: float
    restoration_distance: float
    even: bool


def verify_no_local_evolution(state: EvenState | BipartitePureState,
                              u_sys: UnitaryOperator) -> NoEvolutionReport:
    """Measure how much a system-side unitary moved the system.

    For an even state both distances vanish (to tolerance), as computed by
    `counter_evolve` for a stack of one.  For an uneven state a generic
    unitary shifts the reduced operator and no environment action can bring
    the composite back; the report quantifies both.
    """
    if isinstance(state, EvenState):
        _, reduced, restoration = _stack_of_one(state, u_sys)
        return NoEvolutionReport(
            reduced_distance=float(reduced[0]),
            restoration_distance=float(restoration[0]),
            even=True,
        )

    rho_before = partial_trace_env(state)
    moved = apply_local(state, u_sys, "S")
    rho_after = partial_trace_env(moved)
    # best possible undoing: the environment unitary maximizing the overlap
    # with the original state, via SVD of the cross matrix
    cross = (state.amps.conj().T @ moved.amps).T
    w, sing, vh = np.linalg.svd(cross)
    fidelity = float(np.sum(sing))
    restoration = float(np.sqrt(max(2.0 - 2.0 * fidelity, 0.0)))
    return NoEvolutionReport(
        reduced_distance=rho_before.distance(rho_after),
        restoration_distance=restoration,
        even=False,
    )


def no_evolution_sweep(rank: int, rngs: Iterable[np.random.Generator]
                       ) -> tuple[list[float], list[float]]:
    """(restoration, reduced) distances of random even states of one rank.

    One trial per generator.  Each trial draws its branch phases uniformly
    from [0, 2 pi), then complex Gaussians for the system basis, the
    environment basis and the system unitary, the draws of
    `make_even_state(rank, phases=rng.uniform(0, 2 * pi, rank), rng=rng)`
    followed by `haar_unitary(rank, rng)`, and gets the same distances as
    `verify_no_local_evolution` on them, with every check those make.  The
    trials are stacked in chunks of at most _STACK_ENTRIES complex entries
    per rank x rank stack, so memory stays bounded at any trial count.
    """
    restoration: list[float] = []
    reduced: list[float] = []
    for batch in _chunks(rngs, rank):
        r_dists, q_dists = _sweep_stack(rank, batch)
        restoration.extend(r_dists.tolist())
        reduced.extend(q_dists.tolist())
    return restoration, reduced


def reduced_shifts(state: BipartitePureState, rngs: Iterable[np.random.Generator]
                   ) -> np.ndarray:
    """Frobenius distance the reduced operator of `state` moves under one
    system unitary per generator, drawn as `haar_unitary(state.dim_sys, rng)`.

    The uneven-state counterpart of `no_evolution_sweep`, stacked in the
    same chunks, with the checks `verify_no_local_evolution` makes on the
    way to its reduced distance: unitarity, the moved state's norm and its
    reduced operator.
    """
    rho = partial_trace_env(state).matrix
    shifts = [np.empty(0)]
    for batch in _chunks(rngs, state.dim_sys):
        u_sys = check_unitary(haar_stack(
            np.stack([gaussian_matrix(state.dim_sys, rng) for rng in batch])))
        moved = check_pure_states(u_sys @ state.amps)
        shifts.append(frobenius(rho - check_density(moved @ dagger(moved))))
    return np.concatenate(shifts)


def _chunks(rngs: Iterable[np.random.Generator], dim: int):
    """The generators in runs of at most _STACK_ENTRIES // dim^2, one trial
    per generator, so each dim x dim stack stays within the budget."""
    rngs = iter(rngs)
    while batch := list(itertools.islice(rngs, max(1, _STACK_ENTRIES // dim**2))):
        yield batch


def _sweep_stack(rank: int, rngs: list[np.random.Generator]):
    phases = np.empty((len(rngs), rank))
    z = np.empty((3, len(rngs), rank, rank), dtype=np.complex128)
    for i, rng in enumerate(rngs):
        phases[i] = rng.uniform(0, 2 * math.pi, rank)
        for j in range(3):
            z[j, i] = gaussian_matrix(rank, rng)
    sys_vecs, env_vecs, u_sys = check_unitary(haar_stack(z))
    amps = check_pure_states(even_amplitudes(phases, sys_vecs, env_vecs))
    rho = amps @ dagger(amps)
    check_even(rank, phases, sys_vecs, env_vecs, rho)
    _, reduced, restoration = counter_evolve(phases, sys_vecs, env_vecs, amps, rho, u_sys)
    return restoration, reduced


# ---------------------------------------------------------------------------
# canonical equilibrium by counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelLadder:
    """Energy levels with integer degeneracies, nondecreasing.

    energies (float64) and degeneracies (int64) are read-only 1-d arrays of
    equal, nonzero length.  Energies must be finite and degeneracies whole
    numbers from 1 up to the int64 maximum; anything else raises ValueError
    rather than being rounded, truncated or widened to Python ints.
    """

    energies: np.ndarray
    degeneracies: np.ndarray

    def __post_init__(self):
        energies = np.array(self.energies, dtype=np.float64)  # a copy the caller cannot reach
        raw = np.asarray(self.degeneracies)
        if energies.ndim != 1 or raw.shape != energies.shape or energies.size == 0:
            raise ValueError("need one degeneracy per level, at least one level")
        if not np.all(np.isfinite(energies)):
            raise ValueError("energies must be finite")
        if np.any(energies[1:] < energies[:-1]):
            raise ValueError("energies must be nondecreasing")
        # object arrays are what Python ints past int64 (or non-numbers) make
        if raw.dtype.kind not in "iuf":
            raise ValueError("degeneracies must be integers that fit int64")
        if raw.dtype.kind == "f" and not np.all(np.trunc(raw) == raw):
            raise ValueError("degeneracies must be integers")
        if np.any(raw < 1):
            raise ValueError("degeneracies must be >= 1")
        # as a float 2**63 - 1 rounds up to 2**63, which int64 cannot hold
        top = raw.max()
        too_big = top >= 2.0**63 if raw.dtype.kind == "f" else top > _INT64_MAX
        if too_big:
            raise ValueError("degeneracies must fit int64")
        object.__setattr__(self, "energies", _freeze(energies))
        object.__setattr__(self, "degeneracies", _freeze(raw.astype(np.int64)))

    @property
    def count(self) -> int:
        return self.energies.size

    def expand(self) -> np.ndarray:
        """Per-state energies, one entry per degeneracy slot."""
        return np.repeat(self.energies, self.degeneracies)


@dataclass(frozen=True, eq=False)
class CanonicalFit:
    """Level occupancies from shell counting plus the extracted beta.

    beta comes from a count-weighted least-squares fit of
    ln(occupancy/degeneracy) against -E; r_squared exposes misfit.
    window_sensitivity is |beta(window) - beta(window/2)|, reported so that
    shell-width artifacts are visible.  Levels whose shell is empty are
    excluded from the fit and listed in `excluded`.
    """

    beta: float
    occupancies: np.ndarray
    r_squared: float
    window: float
    window_sensitivity: float
    excluded: tuple[int, ...]
    beta_defined: bool


def _shell_counts(system: LevelLadder, bath: LevelLadder,
                  total_energy: float, window: float) -> np.ndarray:
    """Bath microstates with |E_k + e - total_energy| <= window, per level k.

    fl(fl(E_k + e) - total_energy) is monotone in e, so each shell is one
    contiguous run of the sorted bath.  searchsorted finds a slice around
    it whose edges are widened by a few ulps of the operands' magnitudes,
    more than the rounding of either side can move a boundary, and the
    exact predicate then picks the run inside that slice.
    """
    e_sys, e_bath, g_bath = system.energies, bath.energies, bath.degeneracies
    magnitude = (np.abs(e_sys) + abs(total_energy) + window
                 + max(abs(e_bath[0]), abs(e_bath[-1])))
    slack = 4.0 * np.finfo(np.float64).eps * magnitude
    lo = np.searchsorted(e_bath, total_energy - e_sys - window - slack, "left")
    hi = np.searchsorted(e_bath, total_energy - e_sys + window + slack, "right")
    # past float range (or a NaN operand) the slice would be meaningless
    lo = np.where(np.isfinite(magnitude), lo, 0)
    hi = np.where(np.isfinite(magnitude), hi, bath.count)
    # an int64 sum wraps silently past 2**63: a shell whose sum could reach
    # it is summed exactly as Python ints, and either way the exact count is
    # rounded once to float64
    g_top = int(g_bath.max())
    counts = np.empty(system.count, dtype=np.float64)
    for k, ek in enumerate(e_sys):
        inside = np.abs(ek + e_bath[lo[k]:hi[k]] - total_energy) <= window
        g = g_bath[lo[k]:hi[k]][inside]
        may_wrap = g.size * g_top > _INT64_MAX
        counts[k] = float(sum(g.tolist()) if may_wrap else np.sum(g))
    return counts


def _fit_beta(e_sys, g_sys, counts):
    mask = counts > 0
    if int(np.sum(mask)) < 2:
        return float("nan"), float("nan"), False
    x = e_sys[mask]
    if np.ptp(x) == 0.0:
        return float("nan"), float("nan"), False
    y = np.log(counts[mask] / g_sys[mask])
    w = counts[mask]
    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    var = np.average((x - xm) ** 2, weights=w)
    cov = np.average((x - xm) * (y - ym), weights=w)
    beta = -cov / var
    resid = y - (ym - beta * (x - xm))
    ss_res = np.average(resid**2, weights=w)
    ss_tot = np.average((y - ym) ** 2, weights=w)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(beta), float(r2), True


def canonical_by_counting(system: LevelLadder, bath: LevelLadder,
                          total_energy: float,
                          window: float | None = None) -> CanonicalFit:
    """Boltzmann occupancies of a small system from bath microstate counts.

    The occupancy of system level k is proportional to its degeneracy times
    the number of bath microstates whose energy lands within `window` of
    total_energy - E_k.  The window defaults to half the smallest nonzero
    bath level spacing, the standard regularization of the exact energy
    constraint.  Each shell costs O(log n) to find in an n-level bath plus
    its own width to count.
    """
    if bath.count < 10 * system.count:
        raise ValueError("bath must carry at least 10x the system level count")
    if window is None:
        gaps = np.diff(bath.energies)
        gaps = gaps[gaps > 0]
        if gaps.size == 0:
            raise ValueError("cannot infer a window from a single bath level")
        window = float(np.min(gaps)) / 2.0
    if window <= 0:
        raise ValueError("window must be positive")

    e_sys = system.energies
    g_sys = system.degeneracies.astype(np.float64)

    counts = _shell_counts(system, bath, total_energy, window)
    excluded = tuple(int(k) for k in np.nonzero(counts == 0)[0])
    if excluded:
        warnings.warn(
            f"no joint microstate in the shell for system levels {excluded}; "
            "they are recorded with occupancy 0 and excluded from the fit",
            stacklevel=2)

    weights = g_sys * counts
    total = float(np.sum(weights))
    if total == 0:
        raise ValueError("no joint microstate lands in the window at all")
    occupancies = weights / total

    beta, r2, defined = _fit_beta(e_sys, g_sys, weights)
    beta_half, _, defined_half = _fit_beta(
        e_sys, g_sys, g_sys * _shell_counts(system, bath, total_energy, window / 2.0))
    sensitivity = abs(beta - beta_half) if (defined and defined_half) else float("nan")

    return CanonicalFit(
        beta=beta,
        occupancies=occupancies,
        r_squared=r2,
        window=window,
        window_sensitivity=sensitivity,
        excluded=excluded,
        beta_defined=defined,
    )


# ---------------------------------------------------------------------------
# thermal purification
# ---------------------------------------------------------------------------

def thermal_purification(system: LevelLadder, beta: float,
                         check_tail: bool = False) -> BipartitePureState:
    """Pure entangled state whose reduced operator is the Gibbs state.

    Each retained level k (degeneracy slots expanded) contributes a branch
    with amplitude e^{-beta E_k / 2}/sqrt(Z) paired with its own environment
    vector.  With check_tail=True the ladder is treated as the truncation of
    an unbounded ladder and the last retained Boltzmann weight must be
    negligible (< 1e-12 of Z), else TruncationError.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    energies = system.expand()
    log_w = -beta * (energies - energies[0])  # shift for numerical headroom
    w = np.exp(log_w)
    z = float(np.sum(w))
    if check_tail and w[-1] / z >= 1e-12:
        raise TruncationError(
            f"last retained Boltzmann weight {w[-1] / z:.3e} of Z is not < 1e-12")
    amps = np.diag(np.sqrt(w / z)).astype(np.complex128)
    return BipartitePureState(amps)

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

import warnings
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
    apply_local,
    haar_unitary,
    partial_trace_env,
)
from .tolerances import DECOMPOSITION, PHYSICS

__all__ = [
    "EvenState",
    "LevelLadder",
    "CanonicalFit",
    "NoEvolutionReport",
    "make_even_state",
    "counter_evolution_for",
    "verify_no_local_evolution",
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
        k = self.rank
        if self.sys_vecs.shape[1] != k or self.env_vecs.shape[1] != k:
            raise DimensionMismatchError("need one branch vector per rank")
        if len(self.phases) != k:
            raise DimensionMismatchError("need one phase per branch")
        for vecs, side in ((self.sys_vecs, "system"), (self.env_vecs, "environment")):
            gram = vecs.conj().T @ vecs
            if np.max(np.abs(gram - np.eye(k))) > DECOMPOSITION:
                raise InvalidStateError(f"{side} branch vectors are not orthonormal")
        # reduced operator must be the normalized projector on the branch span
        proj = self.sys_vecs @ self.sys_vecs.conj().T
        rho = self.state.amps @ self.state.amps.conj().T
        if np.max(np.abs(rho - proj / k)) > DECOMPOSITION:
            raise InvalidStateError("branch weights are not all equal to 1/sqrt(K)")
        for name in ("phases", "sys_vecs", "env_vecs"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

    weights = np.exp(1j * phases) / np.sqrt(rank)
    amps = (sys_vecs * weights) @ env_vecs.T
    state = BipartitePureState(amps)
    return EvenState(rank, phases, sys_vecs, env_vecs, state)


# ---------------------------------------------------------------------------
# the counter-evolution construction
# ---------------------------------------------------------------------------

def counter_evolution_for(even: EvenState, u_sys: UnitaryOperator) -> UnitaryOperator:
    """Environment unitary undoing an arbitrary unitary on the even subspace.

    With branch pairs (s_k, e_k) and phases phi_k, the rotated system basis
    st_l = u_sys s_l pairs with environment vectors
    et_l = sum_k e^{i phi_k} <st_l|s_k> e_k, which come out orthonormal
    whenever u_sys preserves the branch span.  Mapping e_l to
    e^{-i phi_l} et_l (identity elsewhere) then restores the composite
    exactly.  Raises SubspaceEscapeError when u_sys leaks outside the span.
    """
    if u_sys.dim != even.dim_sys:
        raise DimensionMismatchError("system unitary has the wrong dimension")

    s = even.sys_vecs
    rotated = u_sys.matrix @ s
    # block-preservation: the rotated branch vectors must stay in the span
    leak = rotated - s @ (s.conj().T @ rotated)
    if np.linalg.norm(leak) > PHYSICS * max(np.linalg.norm(rotated), 1.0):
        raise SubspaceEscapeError(
            "unitary maps the even subspace outside itself; no counter-evolution")

    overlaps = rotated.conj().T @ s                      # [l, k] = <st_l|s_k>
    weights = np.exp(1j * even.phases)
    partners = even.env_vecs @ (overlaps * weights).T    # column l = et_l
    gram = partners.conj().T @ partners
    if np.max(np.abs(gram - np.eye(even.rank))) > DECOMPOSITION:
        raise SubspaceEscapeError(
            "rotated environment partners failed the orthonormality check")

    e = even.env_vecs
    mapped = partners * np.exp(-1j * even.phases)
    u_env = np.eye(even.dim_env, dtype=np.complex128) - e @ e.conj().T \
        + mapped @ e.conj().T
    out = UnitaryOperator(u_env)

    moved = apply_local(even.state, u_sys, "S")
    if apply_local(moved, out, "E").distance(even.state) > DECOMPOSITION:
        raise SubspaceEscapeError("constructed counter-evolution failed to restore")
    return out


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

    For an even state both distances vanish (to tolerance).  For an uneven
    state a generic unitary shifts the reduced operator and no environment
    action can bring the composite back; the report quantifies both.
    """
    if isinstance(state, EvenState):
        rho_before = state.reduced()
        moved = apply_local(state.state, u_sys, "S")
        rho_after = partial_trace_env(moved)
        u_env = counter_evolution_for(state, u_sys)
        restored = apply_local(moved, u_env, "E")
        return NoEvolutionReport(
            reduced_distance=rho_before.distance(rho_after),
            restoration_distance=restored.distance(state.state),
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


# ---------------------------------------------------------------------------
# canonical equilibrium by counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelLadder:
    """Energy levels with integer degeneracies, nondecreasing."""

    energies: tuple[float, ...]
    degeneracies: tuple[int, ...]

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        degs = tuple(int(g) for g in self.degeneracies)
        if len(energies) != len(degs) or not energies:
            raise ValueError("need one degeneracy per level, at least one level")
        if any(b < a for a, b in zip(energies, energies[1:])):
            raise ValueError("energies must be nondecreasing")
        if any(g < 1 for g in degs):
            raise ValueError("degeneracies must be >= 1")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "degeneracies", degs)

    @property
    def count(self) -> int:
        return len(self.energies)

    def expand(self) -> np.ndarray:
        """Per-state energies, one entry per degeneracy slot."""
        return np.repeat(np.asarray(self.energies), np.asarray(self.degeneracies))


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
    e_sys = np.asarray(system.energies)
    e_bath = np.asarray(bath.energies)
    g_bath = np.asarray(bath.degeneracies)
    counts = np.empty(system.count, dtype=np.float64)
    for k, ek in enumerate(e_sys):
        inside = np.abs(ek + e_bath - total_energy) <= window
        counts[k] = float(np.sum(g_bath[inside]))
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
    total_energy - E_k.  The window defaults to half the minimum bath level
    spacing, the standard regularization of the exact energy constraint.
    """
    if bath.count < 10 * system.count:
        raise ValueError("bath must carry at least 10x the system level count")
    if window is None:
        gaps = np.diff(np.unique(np.asarray(bath.energies)))
        if gaps.size == 0:
            raise ValueError("cannot infer a window from a single bath level")
        window = float(np.min(gaps)) / 2.0
    if window <= 0:
        raise ValueError("window must be positive")

    e_sys = np.asarray(system.energies)
    g_sys = np.asarray(system.degeneracies, dtype=np.float64)

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

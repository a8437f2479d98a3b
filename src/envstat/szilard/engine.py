"""Thermal states of the engine and the which-side measurement.

Every engine state is diagonal in the box or doublet basis, apart from one
real coherence inside each doublet block in the L/R basis.  EngineState
stores exactly that structure, so building, validating, measuring and
diagonalizing a state costs O(n) time and memory; a dense matrix is built
only when `.matrix` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from ..errors import (
    DimensionMismatchError,
    InvalidStateError,
    LeakyProjectorError,
    TruncationError,
)
from ..hilbert import _freeze, von_neumann_entropy
from ..tolerances import DEFAULT_TOLS, Tolerances
from .config import EngineConfig
from .spectrum import BoxSpectrum, SplitSpectrum

__all__ = [
    "EngineState",
    "MeasurementOutcome",
    "thermal_state",
    "z_boltzmann_gas",
    "split_partition_function",
    "barrier_thermal_state",
    "measure_side",
]


@dataclass(frozen=True, eq=False)
class EngineState:
    """Density operator made of 2x2 doublet blocks, stored by its structure.

    weights is the diagonal (one population per level).  coherences, when
    given, holds the real entry between levels 2k and 2k+1 for each
    complete block k; None means the state is diagonal.  Validation is
    O(n): finite entries, unit trace, and block eigenvalues, in closed form,
    no lower than minus the decomposition tolerance.
    """

    weights: np.ndarray
    coherences: np.ndarray | None = None
    tols: Tolerances = field(default=DEFAULT_TOLS, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise InvalidStateError("engine state needs a nonempty 1-d weight vector")
        if not np.all(np.isfinite(w)):
            raise InvalidStateError("engine state weights must be finite (no NaN/Inf)")
        object.__setattr__(self, "weights", _freeze(w))
        if self.coherences is not None:
            c = np.asarray(self.coherences, dtype=np.float64)
            if c.shape != (w.size // 2,):
                raise DimensionMismatchError(
                    f"need one coherence per doublet block ({w.size // 2}), got {c.shape}")
            if not np.all(np.isfinite(c)):
                raise InvalidStateError("engine state coherences must be finite (no NaN/Inf)")
            object.__setattr__(self, "coherences", _freeze(c))
        tol = self.tols.decomposition
        tr = float(np.sum(w))
        if abs(tr - 1.0) > tol:
            raise InvalidStateError(f"engine state trace {tr} is not 1")
        lo = float(np.min(self._block_eigenvalues()))
        if lo < -tol:
            raise InvalidStateError(f"engine state has eigenvalue {lo} < 0")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def _block_eigenvalues(self) -> np.ndarray:
        """Eigenvalues block by block: a 2x2 block [[a, c], [c, b]] has
        (a + b)/2 -+ hypot((a - b)/2, c); a thermal L/R block gives w(ch -+ sh)."""
        w, c = self.weights, self.coherences
        if c is None:
            return w
        m = c.size
        a, b = w[0:2 * m:2], w[1:2 * m:2]
        mean = 0.5 * (a + b)
        rad = np.hypot(0.5 * (a - b), c)
        return np.concatenate((mean - rad, mean + rad, w[2 * m:]))

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return np.sort(self._block_eigenvalues())

    @property
    def matrix(self) -> np.ndarray:
        """Dense real matrix, built anew on every read (O(n^2) memory)."""
        m = np.diag(self.weights)
        if self.coherences is not None:
            k = np.arange(self.coherences.size)
            m[2 * k, 2 * k + 1] = self.coherences
            m[2 * k + 1, 2 * k] = self.coherences
        return m


def thermal_state(spec: BoxSpectrum, temperature: float, kb: float = 1.0,
                  tols: Tolerances = DEFAULT_TOLS) -> tuple[EngineState, float]:
    """Gibbs state over the bare-box levels and its partition sum.

    The state is diagonal in the box basis: one Boltzmann weight per level.
    Z is the direct sum of the retained Boltzmann weights.  The dropped
    tail is bounded by the Gaussian integral past the last level; if the
    bound is not below 1e-12 of Z the truncation is rejected.
    """
    beta = 1.0 / (kb * temperature)
    energies = spec.energies
    weights = np.exp(-beta * energies)
    z = float(np.sum(weights))
    n_last = spec.levels[-1][0]
    t = beta * spec.epsilon
    tail = 0.5 * math.sqrt(math.pi / t) * erfc(n_last * math.sqrt(t))
    if tail / z >= 1e-12:
        raise TruncationError(
            f"Boltzmann tail bound {tail / z:.3e} of Z exceeds 1e-12; raise n_trunc")
    return EngineState(weights / z, tols=tols), z


def z_boltzmann_gas(eps_beta: float) -> float:
    """High-temperature closed form (pi / (eps*beta))^(1/2) / 2."""
    return 0.5 * math.sqrt(math.pi / eps_beta)


def split_partition_function(split: SplitSpectrum, beta: float) -> float:
    """Z of the doublet spectrum: sum over 2 exp(-beta E_k) cosh(beta Delta_k)."""
    e = split.centers()
    d = split.deltas()
    return float(np.sum(2.0 * np.exp(-beta * e) * np.cosh(beta * d)))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn applied by the C library, element by element.  numpy's SIMD
    exp/cosh/sinh may differ from it in the last bit, and the L/R weights
    set the reported measurement probabilities bit for bit."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def barrier_thermal_state(split: SplitSpectrum, temperature: float,
                          basis: str = "energy", kb: float = 1.0,
                          tols: Tolerances = DEFAULT_TOLS) -> EngineState:
    """Gibbs state of the split box in the requested basis.

    basis "energy" orders each doublet as (psi+, psi-) with weights
    exp(-beta(E_k +- Delta_k))/Z and no coherences.  basis "LR" carries
    cosh(beta Delta_k) on the diagonal and sinh(beta Delta_k) between L_k
    and R_k (both times exp(-beta E_k)/Z), the two being related by the
    exact doublet rotation; as Delta -> 0 the coherences vanish and the
    state commutes with the which-side projectors.  Either way the state
    is an O(n) EngineState.
    """
    beta = 1.0 / (kb * temperature)
    e = split.centers()
    d = split.deltas()
    z = split_partition_function(split, beta)
    if basis == "energy":
        diag = np.empty(2 * split.count)
        diag[0::2] = np.exp(-beta * (e + d))  # psi+ slots
        diag[1::2] = np.exp(-beta * (e - d))  # psi- slots
        return EngineState(diag / z, tols=tols)
    if basis == "LR":
        w = _libm(math.exp, -beta * e) / z
        ch = w * _libm(math.cosh, beta * d)
        return EngineState(np.repeat(ch, 2), w * _libm(math.sinh, beta * d), tols)
    raise ValueError(f"unknown basis {basis!r}")


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of the which-side measurement.

    post_state is None for an outcome that never occurs (probability below
    float resolution), where the conditional state is undefined.
    """

    side: str
    probability: float
    post_state: EngineState | None

    def entropy(self) -> float:
        if self.post_state is None:
            raise ValueError(f"outcome {self.side} has no post state (p = 0)")
        return von_neumann_entropy(self.post_state)


def measure_side(rho: EngineState, n_pairs: int | None = None,
                 cfg: EngineConfig | None = None,
                 leak_tol: float = 1e-6) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Project a state in the L/R block layout onto left and right.

    The projectors sum |L_k><L_k| and |R_k><R_k| over the first n_pairs
    doublets (all of them by default, in which case they resolve the
    identity on the truncated space exactly).  When a config is supplied
    the doublet count must satisfy N^2 * eps * beta >= 20, the regime in
    which the projectors distinguish the sides.  Outcome probabilities
    Tr(P rho P) are sums of the weights over the side's levels; post states
    are those weights renormalized, with every other level and every L/R
    coherence projected out, so the whole measurement is O(n).
    """
    dim = rho.dim
    if dim % 2 != 0:
        raise DimensionMismatchError("L/R block layout needs an even dimension")
    total_pairs = dim // 2
    if n_pairs is None:
        n_pairs = total_pairs
    if not 1 <= n_pairs <= total_pairs:
        raise DimensionMismatchError(
            f"n_pairs must lie in 1..{total_pairs}, got {n_pairs}")
    if cfg is not None and n_pairs**2 * cfg.eps_beta < 20.0:
        raise ValueError(
            f"projector rank {n_pairs} violates N^2*eps*beta >= 20 "
            f"(got {n_pairs**2 * cfg.eps_beta:.3g})")

    covered = float(np.sum(rho.weights[: 2 * n_pairs]))
    if covered < 1.0 - leak_tol:
        raise LeakyProjectorError(
            f"projectors cover only {covered:.9f} of the state; increase n_pairs")

    def project(side_levels: slice, side: str) -> MeasurementOutcome:
        p = float(np.sum(rho.weights[side_levels]))
        if p < 1e-15:
            return MeasurementOutcome(side, p, None)
        post = np.zeros(dim)
        # scaled by 1/p, not divided by p: reported repeat probabilities are
        # pinned to this rounding
        post[side_levels] = rho.weights[side_levels] * (1.0 / p)
        return MeasurementOutcome(side, p, EngineState(post, tols=rho.tols))

    return (project(slice(0, 2 * n_pairs, 2), "L"),
            project(slice(1, 2 * n_pairs, 2), "R"))

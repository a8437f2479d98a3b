"""Thermal states of the engine and the which-side measurement.

The bare box's Gibbs state is diagonal in the box basis; the split box's is
built in the left/right basis, where each doublet block carries one real
coherence between L_k and R_k.  EngineState stores exactly that structure,
so building, validating, measuring and diagonalizing a state costs O(n)
time and memory; a dense matrix is built only when `.matrix` is read.  Both
Gibbs-state constructors return the state together with its partition sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, InvalidStateError, RegimeError, TruncationError
from ..hilbert import _freeze
from ..tolerances import DECOMPOSITION
from .spectrum import BoxSpectrum, SplitSpectrum, _libm

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
        tr = float(np.sum(w))
        if abs(tr - 1.0) > DECOMPOSITION:
            raise InvalidStateError(f"engine state trace {tr} is not 1")
        lo = float(np.min(self._block_eigenvalues()))
        if lo < -DECOMPOSITION:
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


def thermal_state(spec: BoxSpectrum, temperature: float,
                  kb: float = 1.0) -> tuple[EngineState, float]:
    """Gibbs state over the bare-box levels and its partition sum.

    The state is diagonal in the box basis: one Boltzmann weight per level.
    Z is the direct sum of the retained Boltzmann weights.  The dropped
    tail is bounded by the Gaussian integral past the last level; if the
    bound is not below 1e-12 of Z the truncation is rejected.  A bath so
    cold that every weight underflows to 0 is outside the regime.
    """
    beta = 1.0 / (kb * temperature)
    weights = np.exp(-beta * spec.energies)
    z = float(np.sum(weights))
    if z == 0.0:
        raise RegimeError(
            f"partition sum underflows to 0 at beta*E_1 = {beta * spec.epsilon:.4g}; "
            "the bath is too cold for double precision")
    t = beta * spec.epsilon
    tail = 0.5 * math.sqrt(math.pi / t) * math.erfc(spec.n_max * math.sqrt(t))
    if tail / z >= 1e-12:
        raise TruncationError(
            f"Boltzmann tail bound {tail / z:.3e} of Z exceeds 1e-12; raise n_trunc")
    return EngineState(weights / z), z


def z_boltzmann_gas(eps_beta: float) -> float:
    """High-temperature closed form (pi / (eps*beta))^(1/2) / 2."""
    return 0.5 * math.sqrt(math.pi / eps_beta)


def split_partition_function(split: SplitSpectrum, beta: float) -> float:
    """Z of the doublet spectrum: sum over 2 exp(-beta E_k) cosh(beta Delta_k)."""
    e, d = split.centers, split.deltas
    z = float(np.sum(2.0 * np.exp(-beta * e) * np.cosh(beta * d)))
    if z == 0.0 and split.count:
        raise RegimeError(
            f"split partition sum underflows to 0 at beta*E_1 = {beta * e[0]:.4g}; "
            "the bath is too cold for double precision")
    return z


def barrier_thermal_state(split: SplitSpectrum, temperature: float,
                          kb: float = 1.0) -> tuple[EngineState, float]:
    """Gibbs state of the split box in the L/R basis and its partition sum.

    Each doublet block carries cosh(beta Delta_k) on the diagonal and
    sinh(beta Delta_k) between L_k and R_k, both times exp(-beta E_k)/Z:
    the energy-basis state (psi+, psi-) with weights exp(-beta(E_k +-
    Delta_k))/Z, turned by the exact doublet rotation.  As Delta -> 0 the
    coherences vanish and the state commutes with the which-side
    projectors.
    """
    beta = 1.0 / (kb * temperature)
    e, d = split.centers, split.deltas
    z = split_partition_function(split, beta)
    w = _libm(math.exp, -beta * e) / z
    ch = w * _libm(math.cosh, beta * d)
    return EngineState(np.repeat(ch, 2), w * _libm(math.sinh, beta * d)), z


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of the which-side measurement.

    post_state is None for an outcome that never occurs (probability below
    float resolution), where the conditional state is undefined.
    """

    side: str
    probability: float
    post_state: EngineState | None


def measure_side(rho: EngineState) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Project a state in the L/R block layout onto left and right.

    The projectors sum |L_k><L_k| and |R_k><R_k| over every doublet, so
    they resolve the identity on the truncated space exactly.  Outcome
    probabilities Tr(P rho P) are sums of the weights over the side's
    levels; post states are those weights renormalized, with every other
    level and every L/R coherence projected out, so the whole measurement
    is O(n).
    """
    dim = rho.dim
    if dim % 2 != 0:
        raise DimensionMismatchError("L/R block layout needs an even dimension")

    def project(side_levels: slice, side: str) -> MeasurementOutcome:
        p = float(np.sum(rho.weights[side_levels]))
        if p < 1e-15:
            return MeasurementOutcome(side, p, None)
        post = np.zeros(dim)
        # scaled by 1/p, not divided by p: reported repeat probabilities are
        # pinned to this rounding
        post[side_levels] = rho.weights[side_levels] * (1.0 / p)
        return MeasurementOutcome(side, p, EngineState(post))

    return project(slice(0, dim, 2), "L"), project(slice(1, dim, 2), "R")

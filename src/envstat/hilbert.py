"""Dense complex linear algebra substrate.

States, operators, tensor products, partial traces, Schmidt decomposition,
von Neumann entropy and Haar-random unitaries.  All containers are
immutable after construction and validated against the package's fixed
tolerances (`envstat.tolerances`), which no caller can change; every
operation is a pure function, so instances are safe to share between
threads.

Dimensions are desk scale (a few thousand at most), so these containers
are dense complex128, with no sparse or tensor-network representations.
Where the physics is structured the dense form is not used: the engine's
thermal and measured states (`envstat.szilard.engine.EngineState`) are
stored as per-level weights plus per-doublet coherences, cost O(n), and
build a dense matrix only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .tolerances import CONSTRUCTION, DECOMPOSITION

__all__ = [
    "StateVector",
    "BipartitePureState",
    "SchmidtForm",
    "DensityOperator",
    "UnitaryOperator",
    "tensor",
    "schmidt",
    "partial_trace_env",
    "partial_trace_sys",
    "von_neumann_entropy",
    "apply_local",
    "haar_unitary",
]


def _as_complex(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128)
    if not np.all(np.isfinite(out)):
        raise InvalidStateError("amplitudes must be finite (no NaN/Inf)")
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amps)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidStateError("state vector must be a nonempty 1-d array")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > CONSTRUCTION:
            raise InvalidStateError(f"state vector norm {norm} is not 1")
        object.__setattr__(self, "amps", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def overlap(self, other: StateVector) -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise DimensionMismatchError("overlap needs equal dimensions")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Pure state of system x environment as a dim_sys x dim_env matrix.

    Entry (j, k) is the amplitude on |j>_S |k>_E.  Frobenius norm 1.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amps)
        if amps.ndim != 2 or amps.size == 0:
            raise InvalidStateError("bipartite amplitudes must be a 2-d matrix")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > CONSTRUCTION:
            raise InvalidStateError(f"bipartite state norm {norm} is not 1")
        object.__setattr__(self, "amps", _freeze(amps))

    @property
    def dim_sys(self) -> int:
        return self.amps.shape[0]

    @property
    def dim_env(self) -> int:
        return self.amps.shape[1]

    def distance(self, other: BipartitePureState) -> float:
        """Euclidean norm of the amplitude difference (global phase counts)."""
        if other.amps.shape != self.amps.shape:
            raise DimensionMismatchError("states live on different spaces")
        return float(np.linalg.norm(self.amps - other.amps))


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a bipartite pure state.

    coeffs are nonnegative, sorted descending, with squares summing to 1;
    branch k carries complex weight coeffs[k] * exp(i*phases[k]).  sys_vecs
    and env_vecs hold the orthonormal branch vectors as columns.
    `degenerate` is set when two retained coefficients are closer than the
    decomposition tolerance; the branch basis is then not unique, so
    consumers must compare reconstructions, not bases.
    """

    coeffs: np.ndarray
    phases: np.ndarray
    sys_vecs: np.ndarray
    env_vecs: np.ndarray
    degenerate: bool

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        phases = np.asarray(self.phases, dtype=np.float64)
        sys_vecs = _as_complex(self.sys_vecs)
        env_vecs = _as_complex(self.env_vecs)
        rank = coeffs.shape[0]
        if np.any(coeffs < 0) or np.any(np.diff(coeffs) > DECOMPOSITION):
            raise InvalidStateError("Schmidt coefficients must be nonnegative, descending")
        if abs(np.sum(coeffs**2) - 1.0) > DECOMPOSITION:
            raise InvalidStateError("squared Schmidt coefficients must sum to 1")
        for vecs in (sys_vecs, env_vecs):
            gram = vecs.conj().T @ vecs
            if np.max(np.abs(gram - np.eye(rank))) > DECOMPOSITION:
                raise InvalidStateError("Schmidt branch vectors must be orthonormal")
        object.__setattr__(self, "coeffs", _freeze(coeffs))
        object.__setattr__(self, "phases", _freeze(phases))
        object.__setattr__(self, "sys_vecs", _freeze(sys_vecs))
        object.__setattr__(self, "env_vecs", _freeze(env_vecs))

    @property
    def rank(self) -> int:
        return self.coeffs.shape[0]

    @property
    def sys_basis(self) -> list[StateVector]:
        return [StateVector(self.sys_vecs[:, k]) for k in range(self.rank)]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError("density operator must be square")
        if np.max(np.abs(m - m.conj().T)) > CONSTRUCTION:
            raise InvalidStateError("density operator must be Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > DECOMPOSITION:
            raise InvalidStateError(f"density operator trace {tr} is not 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -DECOMPOSITION:
            raise InvalidStateError(f"density operator has eigenvalue {lo} < 0")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return np.linalg.eigvalsh(self.matrix)

    def distance(self, other: DensityOperator) -> float:
        """Frobenius distance."""
        if other.dim != self.dim:
            raise DimensionMismatchError("operators live on different spaces")
        return float(np.linalg.norm(self.matrix - other.matrix))


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Matrix with U^dagger U = 1 within the decomposition tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError("unitary must be square")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > DECOMPOSITION:
            raise InvalidStateError(f"operator fails unitarity by {dev}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def identity(dim: int) -> UnitaryOperator:
        return UnitaryOperator(np.eye(dim, dtype=np.complex128))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Composite |a> x |b>; index (j, k) flattens to j*b.dim + k."""
    return StateVector(np.kron(a.amps, b.amps))


def schmidt(state: BipartitePureState) -> SchmidtForm:
    """Schmidt decomposition via SVD of the amplitude matrix.

    Branch coefficients are the singular values above the decomposition
    tolerance.  Phases are pulled out of the branch vectors so that every
    retained coefficient is real nonnegative and both bases follow a
    largest-component-real-positive convention.
    """
    u, s, vh = np.linalg.svd(state.amps, full_matrices=False)
    rank = max(int(np.sum(s > DECOMPOSITION)), 1)
    coeffs = s[:rank].astype(np.float64)
    sys_vecs = u[:, :rank].copy()
    env_vecs = vh[:rank, :].T.copy()  # amps = sum_k s_k sys[:,k] env[:,k]^T

    phases = np.zeros(rank)
    for k in range(rank):
        j = int(np.argmax(np.abs(sys_vecs[:, k])))
        ph = np.angle(sys_vecs[j, k])
        sys_vecs[:, k] *= np.exp(-1j * ph)
        env_vecs[:, k] *= np.exp(1j * ph)
        j = int(np.argmax(np.abs(env_vecs[:, k])))
        ph = np.angle(env_vecs[j, k])
        env_vecs[:, k] *= np.exp(-1j * ph)
        phases[k] = ph

    degenerate = bool(rank > 1 and np.any(-np.diff(coeffs) < DECOMPOSITION))
    return SchmidtForm(coeffs, phases, sys_vecs, env_vecs, degenerate)


def partial_trace_env(state: BipartitePureState) -> DensityOperator:
    """Reduced operator of the system: Tr_E |Psi><Psi| = A A^dagger."""
    return DensityOperator(state.amps @ state.amps.conj().T)


def partial_trace_sys(state: BipartitePureState) -> DensityOperator:
    """Reduced operator of the environment: Tr_S |Psi><Psi| = A^T A^*."""
    return DensityOperator(state.amps.T @ state.amps.conj())


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum lambda ln lambda in nats, eigenvalues below 1e-14 dropped.

    Any state with an `eigenvalues()` method will do, such as the engine's
    structured states, whose eigenvalues are closed-form.

    Slightly negative eigenvalues within the positivity tolerance are
    clamped to zero (more negative ones are rejected by the constructor).
    """
    lam = rho.eigenvalues()
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam >= 1e-14]
    return float(-np.sum(lam * np.log(lam)))


def apply_local(state: BipartitePureState, u: UnitaryOperator, side: str) -> BipartitePureState:
    """Apply a unitary to one side; "S" multiplies rows, "E" columns."""
    if side == "S":
        if u.dim != state.dim_sys:
            raise DimensionMismatchError(
                f"system unitary dim {u.dim} != {state.dim_sys}")
        amps = u.matrix @ state.amps
    elif side == "E":
        if u.dim != state.dim_env:
            raise DimensionMismatchError(
                f"environment unitary dim {u.dim} != {state.dim_env}")
        amps = state.amps @ u.matrix.T
    else:
        raise ValueError(f"side must be 'S' or 'E', got {side!r}")
    return BipartitePureState(amps)


# ---------------------------------------------------------------------------
# seeded random unitaries
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed unitary from QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the R diagonal phases so the distribution is exactly Haar
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryOperator(q)

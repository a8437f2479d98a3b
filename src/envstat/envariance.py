"""Entanglement-assisted invariance: constructions and verdicts.

A transformation of the system is envariant when its effect on the composite
state can be undone by acting on the environment alone.  This module builds
the undoing transformations explicitly (conjugate phases on environment
branch partners, mirrored permutations of those partners), so the
construction doubles as the test oracle.  It also implements the counting
argument that turns branch tallies into Born weights, with probabilities
kept as exact rationals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BasisMismatchError,
    BranchLimitError,
    DimensionMismatchError,
    NotEvenError,
)
from .hilbert import (
    BipartitePureState,
    SchmidtForm,
    StateVector,
    UnitaryOperator,
    apply_local,
    schmidt,
)
from .tolerances import DECOMPOSITION, EVENNESS, PHYSICS

__all__ = [
    "PhaseShift",
    "SwapSpec",
    "FinegrainSpec",
    "FinegrainResult",
    "RationalBracket",
    "countershift_for",
    "counterswap_for",
    "swap_unitary",
    "equal_probability_certificate",
    "all_pairs_certified",
    "finegrain_born_rule",
    "coarse_probabilities",
    "incommensurate_bound",
]

MAX_BRANCHES = 4096


@dataclass(frozen=True, eq=False)
class PhaseShift:
    """Diagonal phase rotation in a designated orthonormal basis.

    Vectors outside the designated set are left untouched (identity on the
    orthocomplement).
    """

    phases: tuple[float, ...]
    basis: tuple[StateVector, ...]

    def __post_init__(self):
        if len(self.phases) != len(self.basis):
            raise DimensionMismatchError("one phase per designated basis state")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        object.__setattr__(self, "basis", tuple(self.basis))
        vecs = np.column_stack([b.amps for b in self.basis])
        gram = vecs.conj().T @ vecs
        if np.max(np.abs(gram - np.eye(len(self.basis)))) > DECOMPOSITION:
            raise BasisMismatchError("phase-shift basis must be orthonormal")

    def to_unitary(self) -> UnitaryOperator:
        dim = self.basis[0].dim
        vecs = np.column_stack([b.amps for b in self.basis])
        proj = vecs @ vecs.conj().T
        rot = (vecs * np.exp(1j * np.asarray(self.phases))) @ vecs.conj().T
        return UnitaryOperator(np.eye(dim) - proj + rot)


@dataclass(frozen=True)
class SwapSpec:
    """Pairwise permutation of Schmidt branch labels; branches in no pair
    are left in place."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(k), int(l)) for k, l in self.pairs)
        seen: set[int] = set()
        for k, l in pairs:
            if k == l or k < 0 or l < 0:
                raise ValueError(f"swap pair ({k}, {l}) is not a valid transposition")
            if k in seen or l in seen:
                raise ValueError("swap indices must be distinct across pairs")
            seen.update((k, l))
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class FinegrainSpec:
    """Branch counts for the commensurate two-outcome split."""

    mu: int
    nu: int

    def __post_init__(self):
        if self.mu < 1 or self.nu < 1:
            raise ValueError("branch counts mu, nu must be >= 1")


# ---------------------------------------------------------------------------
# phase shifts and countershifts
# ---------------------------------------------------------------------------

def countershift_for(state: BipartitePureState, shift: PhaseShift,
                     form: SchmidtForm | None = None) -> UnitaryOperator:
    """Environment unitary that undoes a Schmidt-aligned phase shift.

    Each designated vector must be an eigenvector of the reduced system
    operator (i.e. live inside a single branch or a degenerate branch
    subspace); its environment partner then picks up the conjugate phase.
    Raises BasisMismatchError otherwise: a misaligned phase shift admits no
    exact countershift, which is precisely what makes such phases physical.
    """
    if form is None:
        form = schmidt(state)
    if shift.basis[0].dim != state.dim_sys:
        raise DimensionMismatchError("phase-shift basis lives on the wrong space")

    rho = state.amps @ state.amps.conj().T
    partners = []
    kept_phases = []
    for phase, vec in zip(shift.phases, shift.basis):
        b = vec.amps
        lam = float(np.real(b.conj() @ rho @ b))
        if lam <= PHYSICS:
            continue  # no weight on this vector; the shift cannot act on the state
        if np.linalg.norm(rho @ b - lam * b) > PHYSICS:
            raise BasisMismatchError(
                "phase-shift basis is not aligned with the Schmidt structure")
        eta = state.amps.T @ b.conj()  # unnormalized environment partner
        partners.append(eta / np.linalg.norm(eta))
        kept_phases.append(phase)

    if partners:
        pvecs = np.column_stack(partners)
        gram = pvecs.conj().T @ pvecs
        if np.max(np.abs(gram - np.eye(len(partners)))) > PHYSICS:
            raise BasisMismatchError(
                "environment partners of the shifted vectors are not orthogonal")
        proj = pvecs @ pvecs.conj().T
        rot = (pvecs * np.exp(-1j * np.asarray(kept_phases))) @ pvecs.conj().T
        u_env = UnitaryOperator(np.eye(state.dim_env) - proj + rot)
    else:
        u_env = UnitaryOperator.identity(state.dim_env)

    shifted = apply_local(state, shift.to_unitary(), "S")
    if apply_local(shifted, u_env, "E").distance(state) > DECOMPOSITION:
        raise BasisMismatchError("constructed countershift fails to restore the state")
    return u_env


# ---------------------------------------------------------------------------
# swaps and counterswaps
# ---------------------------------------------------------------------------

def swap_unitary(form: SchmidtForm, swap: SwapSpec, dim: int) -> UnitaryOperator:
    """System-side permutation of the listed Schmidt branches."""
    _check_pairs(form, swap)
    if form.sys_vecs.shape[0] != dim:
        raise DimensionMismatchError(
            f"branch vectors live in dimension {form.sys_vecs.shape[0]}, not {dim}")
    u = np.eye(dim, dtype=np.complex128)
    vecs = form.sys_vecs
    for k, l in swap.pairs:
        sk, sl = vecs[:, k], vecs[:, l]
        u = u - np.outer(sk, sk.conj()) - np.outer(sl, sl.conj()) \
            + np.outer(sl, sk.conj()) + np.outer(sk, sl.conj())
    return UnitaryOperator(u)


def counterswap_for(state: BipartitePureState, swap: SwapSpec,
                    form: SchmidtForm | None = None) -> UnitaryOperator:
    """Mirrored permutation of environment partners that undoes `swap`.

    Only defined when the swapped branches carry equal weights; otherwise it
    raises NotEvenError, the signature of unequal outcome probabilities.
    Branch phases are compensated, so the pair (swap, counterswap) restores
    the composite exactly for an even state with arbitrary phases.
    """
    if form is None:
        form = schmidt(state)
    _check_pairs(form, swap)
    c2 = form.coeffs**2
    for k, l in swap.pairs:
        if abs(c2[k] - c2[l]) > EVENNESS * max(c2[k], c2[l]):
            raise NotEvenError(
                f"branches {k} and {l} carry weights {c2[k]:.3e} != {c2[l]:.3e}; "
                "swap plus counterswap would not restore the state")
    return _mirrored_permutation(state, form, swap)


def _check_pairs(form: SchmidtForm, swap: SwapSpec) -> None:
    hi = max(form.rank - 1, 0)
    for k, l in swap.pairs:
        if k > hi or l > hi:
            raise DimensionMismatchError(
                f"swap pair ({k}, {l}) exceeds Schmidt rank {form.rank}")


def _mirrored_permutation(state: BipartitePureState, form: SchmidtForm,
                          swap: SwapSpec) -> UnitaryOperator:
    u = np.eye(state.dim_env, dtype=np.complex128)
    vecs = form.env_vecs
    ph = form.phases
    for k, l in swap.pairs:
        ek, el = vecs[:, k], vecs[:, l]
        u = u - np.outer(ek, ek.conj()) - np.outer(el, el.conj()) \
            + np.exp(1j * (ph[l] - ph[k])) * np.outer(el, ek.conj()) \
            + np.exp(1j * (ph[k] - ph[l])) * np.outer(ek, el.conj())
    return UnitaryOperator(u)


def equal_probability_certificate(state: BipartitePureState, k: int, l: int,
                                  form: SchmidtForm | None = None) -> bool:
    """True iff swapping branches k and l can be undone from the environment.

    The check is operational: apply the branch swap on the system, the
    mirrored permutation on the environment, and test whether the composite
    state came back.  Success certifies that the two branches are
    equiprobable (their squared weights agree to well below 1e-8).
    """
    if form is None:
        form = schmidt(state)
    if k == l:
        return True
    swap = SwapSpec(pairs=((k, l),))
    _check_pairs(form, swap)
    u_sys = swap_unitary(form, swap, state.dim_sys)
    u_env = _mirrored_permutation(state, form, swap)
    restored = apply_local(apply_local(state, u_sys, "S"), u_env, "E")
    return restored.distance(state) <= DECOMPOSITION


def all_pairs_certified(form: SchmidtForm) -> bool:
    """Whether every branch pair of `form` passes the swap certificate.

    Uses the exact algebra of the certificate: for branch weights c_k the
    restoration distance of pair (k, l) is sqrt(2)*|c_k - c_l|, so checking
    the extreme coefficients covers all pairs at once.
    """
    if form.rank < 2:
        return True
    spread = float(form.coeffs[0] - form.coeffs[-1])
    return np.sqrt(2.0) * spread <= DECOMPOSITION


# ---------------------------------------------------------------------------
# Born weights by branch counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FinegrainResult:
    """Fine-grained state with exact branch-count probabilities.

    The record keeper and the extra environment are flattened into the
    bipartite layout: system rows enumerate (outcome, record) pairs, while
    environment columns enumerate branches directly.  branch_labels maps the
    flat branch index back to (outcome, record index, environment index).
    """

    state: BipartitePureState
    p_up: Fraction
    p_down: Fraction
    branch_labels: tuple[tuple[str, int, int], ...]
    form: SchmidtForm
    coarse_state: BipartitePureState

    @property
    def branch_count(self) -> int:
        return len(self.branch_labels)


def finegrain_born_rule(spec: FinegrainSpec) -> FinegrainResult:
    """Split a two-outcome state with weights mu, nu into equal branches.

    Builds mu + nu equal-amplitude branches, each pair of which passes the
    swap certificate, so the outcome probabilities are fixed by counting:
    p_up = mu/(mu+nu) and p_down = nu/(mu+nu) as exact rationals.  These
    equal the squared coarse amplitudes; comparing against them is the only
    floating-point step.
    """
    total = spec.mu + spec.nu
    if total > MAX_BRANCHES:
        raise BranchLimitError(
            f"mu + nu = {total} exceeds the branch budget {MAX_BRANCHES}")

    coeff = 1.0 / np.sqrt(total)
    amps = np.zeros((2 * total, total), dtype=np.complex128)
    labels = []
    sys_vecs = np.zeros((2 * total, total), dtype=np.complex128)
    for k in range(total):
        outcome = "up" if k < spec.mu else "down"
        row = (0 if k < spec.mu else 1) * total + k
        amps[row, k] = coeff
        sys_vecs[row, k] = 1.0
        labels.append((outcome, k, k))

    state = BipartitePureState(amps)
    form = SchmidtForm(
        coeffs=np.full(total, coeff),
        phases=np.zeros(total),
        sys_vecs=sys_vecs,
        env_vecs=np.eye(total, dtype=np.complex128),
        degenerate=total > 1,
    )

    alpha = np.sqrt(spec.mu / total)
    beta = np.sqrt(spec.nu / total)
    coarse = BipartitePureState(np.diag([alpha, beta]).astype(np.complex128))

    return FinegrainResult(
        state=state,
        p_up=Fraction(spec.mu, total),
        p_down=Fraction(spec.nu, total),
        branch_labels=tuple(labels),
        form=form,
        coarse_state=coarse,
    )


def coarse_probabilities(result: FinegrainResult) -> tuple[float, float]:
    """Reduced weights of the outcome blocks of the fine-grained state."""
    total = result.branch_count
    block = np.sum(np.abs(result.state.amps) ** 2, axis=1)
    return float(np.sum(block[:total])), float(np.sum(block[total:]))


# ---------------------------------------------------------------------------
# incommensurate targets: rational brackets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalBracket:
    """Two-sided rational bracket of a target probability.

    An endpoint is realizable when it can be produced by finegraining, i.e.
    equals mu/(mu+nu) with mu, nu >= 1.  Targets closer to 0 or 1 than
    1/max_den have no realizable endpoint on that side; the bracket then
    clamps to the certainty value and the flag records it.
    """

    low: Fraction
    high: Fraction
    low_realizable: bool
    high_realizable: bool


def _farey_neighbours(x: Fraction, max_den: int) -> tuple[Fraction, Fraction]:
    """Largest fraction <= x and smallest >= x with denominators <= max_den.

    Continued-fraction descent: the last convergent within max_den and the
    largest semiconvergent beyond it lie on opposite sides of x and are
    adjacent in the Farey sequence of order max_den (the two candidates
    that Fraction.limit_denominator compares).
    """
    if x.denominator <= max_den:
        return x, x
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x.numerator, x.denominator
    while q0 + (n // d) * q1 <= max_den:
        a = n // d
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    semi, conv = Fraction(p0 + k * p1, q0 + k * q1), Fraction(p1, q1)
    return (semi, conv) if semi < conv else (conv, semi)


def incommensurate_bound(target: float | Fraction, max_den: int,
                         snap: float = 1e-12) -> RationalBracket:
    """Tightest rationals low <= target <= high with denominators <= max_den.

    The two endpoints are the target's Farey neighbours of order max_den,
    found by continued fractions in O(log max_den) steps, so the bracket
    width never exceeds 2/max_den and shrinks (never grows) as max_den
    increases.  A target within `snap` of the nearer neighbour n/q is
    treated as that fraction, so commensurate inputs collapse the bracket
    to a point.  An endpoint at 0 or 1 is not realizable; it is reported
    as 0 (low) or 1 (high) with its flag false.
    """
    if not 0 < target < 1:
        raise ValueError("target probability must lie strictly inside (0, 1)")
    if max_den < 1:
        raise ValueError("max_den must be >= 1")

    exact = Fraction(target)  # binary floats convert exactly
    low, high = _farey_neighbours(exact, operator.index(max_den))
    if min(exact - low, high - exact) <= snap:
        low = high = low if exact - low <= high - exact else high
    low_ok = 0 < low < 1
    high_ok = 0 < high < 1
    return RationalBracket(low if low_ok else Fraction(0),
                           high if high_ok else Fraction(1), low_ok, high_ok)

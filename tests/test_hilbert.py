"""Substrate tests: states, operators, Schmidt data, traces, entropy."""

import math

import numpy as np
import pytest

from envstat.errors import DimensionMismatchError, InvalidStateError
from envstat.hilbert import (
    BipartitePureState,
    DensityOperator,
    SchmidtForm,
    StateVector,
    UnitaryOperator,
    apply_local,
    check_density,
    frobenius,
    haar_unitary,
    partial_trace_env,
    partial_trace_sys,
    scale_columns,
    schmidt,
    tensor,
    von_neumann_entropy,
)
from hilbert_randoms import (
    basis_vector,
    product_state,
    random_bipartite_state,
    random_density_operator,
    random_state_vector,
)

RNG = np.random.default_rng(2024)


def bell_state():
    return BipartitePureState(np.eye(2, dtype=complex) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# constructors and invariants
# ---------------------------------------------------------------------------

def test_state_vector_rejects_unnormalized():
    with pytest.raises(InvalidStateError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_nan():
    with pytest.raises(InvalidStateError):
        StateVector(np.array([np.nan, 0.0]))


def test_density_operator_rejects_negative_eigenvalue():
    m = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvalidStateError):
        DensityOperator(m)


def test_density_operator_accepts_tiny_negative_eigenvalue():
    m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    rho = DensityOperator(m)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def test_unitary_rejects_nonunitary():
    with pytest.raises(InvalidStateError):
        UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_arrays_are_frozen():
    v = random_state_vector(3, RNG)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_basis_product():
    out = tensor(basis_vector(2, 0), basis_vector(2, 0))
    assert out.amps[0] == 1.0
    assert np.all(out.amps[1:] == 0.0)


def test_tensor_superposition_with_basis():
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    out = tensor(plus, basis_vector(2, 1))
    expected = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(out.amps, expected, atol=1e-15)


def test_tensor_preserves_norm():
    for k in range(20):
        a = random_state_vector(3, RNG)
        b = random_state_vector(4, RNG)
        assert abs(np.linalg.norm(tensor(a, b).amps) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# schmidt decomposition
# ---------------------------------------------------------------------------

def test_schmidt_product_state_rank_one():
    st = product_state(basis_vector(2, 0), basis_vector(3, 1))
    form = schmidt(st)
    assert form.rank == 1
    assert form.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert not form.degenerate


def test_schmidt_bell_degenerate():
    form = schmidt(bell_state())
    assert form.rank == 2
    assert np.allclose(form.coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert form.degenerate


def test_schmidt_uneven_coeffs_match_reduced_eigenvalues():
    # independent oracle: eigendecomposition of the reduced operator
    amps = np.diag([math.sqrt(1 / 3), math.sqrt(2 / 3)]).astype(complex)
    st = BipartitePureState(amps)
    form = schmidt(st)
    assert np.allclose(form.coeffs, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12)
    eigs = np.linalg.eigvalsh(st.amps @ st.amps.conj().T)[::-1]
    assert np.allclose(form.coeffs**2, eigs, atol=1e-10)


def test_schmidt_reconstruction_and_idempotence():
    for trial in range(10):
        st = random_bipartite_state(3, 5, RNG)
        form = schmidt(st)
        amps = (form.sys_vecs * form.coeffs * np.exp(1j * form.phases)) @ form.env_vecs.T
        rebuilt = BipartitePureState(amps)
        assert rebuilt.distance(st) < 1e-10
        again = schmidt(rebuilt)
        assert np.allclose(again.coeffs, form.coeffs, atol=1e-10)


def test_schmidt_form_validates_orthonormality():
    bad = np.ones((2, 2), dtype=complex) / math.sqrt(2.0)
    with pytest.raises(InvalidStateError):
        SchmidtForm(coeffs=np.array([0.8, 0.6]), phases=np.zeros(2),
                    sys_vecs=bad, env_vecs=np.eye(2, dtype=complex),
                    degenerate=False)


# ---------------------------------------------------------------------------
# partial traces
# ---------------------------------------------------------------------------

def test_partial_trace_product_state_is_projector():
    a = random_state_vector(3, RNG)
    st = product_state(a, random_state_vector(4, RNG))
    rho = partial_trace_env(st)
    assert np.allclose(rho.matrix, np.outer(a.amps, a.amps.conj()), atol=1e-12)


def test_partial_trace_even_state_is_maximally_mixed():
    rho = partial_trace_env(bell_state())
    assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_eigenvalues_match_schmidt_weights():
    st = random_bipartite_state(3, 4, RNG)
    form = schmidt(st)
    eigs = partial_trace_env(st).eigenvalues()[::-1][: form.rank]
    assert np.allclose(eigs, form.coeffs**2, atol=1e-10)


def test_reduced_spectra_identical_on_both_sides():
    for trial in range(25):
        st = random_bipartite_state(3, 5, RNG)
        e_sys = partial_trace_env(st).eigenvalues()[::-1][:3]
        e_env = partial_trace_sys(st).eigenvalues()[::-1][:3]
        assert np.allclose(e_sys, e_env, atol=1e-10)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_pure_state_zero():
    st = random_state_vector(4, RNG)
    rho = DensityOperator(np.outer(st.amps, st.amps.conj()))
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_entropy_maximally_mixed_qubit():
    rho = DensityOperator(np.eye(2, dtype=complex) / 2.0)
    assert von_neumann_entropy(rho) == pytest.approx(math.log(2.0), abs=1e-10)


def test_entropy_thermal_state_matches_boltzmann_sum():
    # direct Boltzmann-sum oracle at eps*beta = 0.5, 50 levels
    from envstat.szilard import EngineConfig, box_spectrum, thermal_state

    cfg = EngineConfig.natural(eps_beta=0.5, n_trunc=50)
    rho, z = thermal_state(box_spectrum(cfg), cfg.temperature)
    n = np.arange(1, 51)
    p = np.exp(-0.5 * n**2) / np.sum(np.exp(-0.5 * n**2))
    expected = float(-np.sum(p[p > 1e-300] * np.log(p[p > 1e-300])))
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-10)


def test_entropy_of_even_state_reduced_is_log_rank():
    from envstat.equilibrium import make_even_state

    for rank in (2, 3, 6):
        even = make_even_state(rank, rng=np.random.default_rng(rank))
        assert von_neumann_entropy(partial_trace_env(even.state)) == pytest.approx(
            math.log(rank), abs=1e-8)


# ---------------------------------------------------------------------------
# local unitaries
# ---------------------------------------------------------------------------

def test_apply_local_identity_leaves_state():
    st = random_bipartite_state(3, 4, RNG)
    for side, dim in (("S", 3), ("E", 4)):
        out = apply_local(st, UnitaryOperator.identity(dim), side)
        assert out.distance(st) < 1e-14


def test_apply_local_dimension_mismatch():
    st = random_bipartite_state(3, 4, RNG)
    with pytest.raises(DimensionMismatchError):
        apply_local(st, UnitaryOperator.identity(4), "S")


def test_phase_shift_and_countershift_restore_even_state():
    phi = 1.3
    u_sys = UnitaryOperator(np.diag([1.0, np.exp(1j * phi)]))
    u_env = UnitaryOperator(np.diag([1.0, np.exp(-1j * phi)]))
    moved = apply_local(apply_local(bell_state(), u_sys, "S"), u_env, "E")
    assert moved.distance(bell_state()) < 1e-10


def test_swap_then_counterswap_restores_bell_state():
    swap = UnitaryOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    moved = apply_local(apply_local(bell_state(), swap, "S"), swap, "E")
    assert moved.distance(bell_state()) < 1e-10


def test_local_unitary_preserves_untouched_schmidt_weights():
    for trial in range(10):
        st = random_bipartite_state(3, 5, RNG)
        before = schmidt(st).coeffs
        moved = apply_local(st, haar_unitary(5, RNG), "E")
        assert np.allclose(schmidt(moved).coeffs, before, atol=1e-10)
        assert abs(np.linalg.norm(moved.amps) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# random instance sanity (the large sweep lives in the acceptance suite)
# ---------------------------------------------------------------------------

def test_random_instances_respect_invariants():
    rng = np.random.default_rng(99)
    for trial in range(50):
        dim = int(rng.integers(2, 7))
        u = haar_unitary(dim, rng)
        assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim))) < 1e-10
        rho = random_density_operator(dim, rng)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
        assert rho.eigenvalues()[0] > -1e-10


# ---------------------------------------------------------------------------
# stacks: the helpers behind the containers agree with one matrix at a time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(5, 1, 1), (5, 3, 2), (4, 16, 16), (3, 64, 64), (7, 7)])
def test_stack_helpers_are_bitwise_per_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = np.exp(1j * rng.uniform(0, 2 * math.pi, shape[:-2] + shape[-1:]))
    stack_m = m.reshape((-1,) + shape[-2:])
    stack_w = w.reshape((-1, shape[-1]))
    norms = np.reshape(frobenius(m), -1)
    scaled = scale_columns(m, w).reshape(stack_m.shape)
    for k in range(stack_m.shape[0]):
        assert norms[k] == np.linalg.norm(stack_m[k])
        assert np.array_equal(scaled[k], stack_m[k] * stack_w[k])


def test_density_check_rejects_one_bad_member_of_a_stack():
    good = np.stack([np.eye(2) / 2] * 3).astype(complex)
    check_density(good)
    bad = good.copy()
    bad[1] = np.diag([1.2, -0.2])
    with pytest.raises(InvalidStateError, match="eigenvalue -0.2"):
        check_density(bad)

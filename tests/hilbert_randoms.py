"""Seeded random states and small fixed states for the substrate tests."""

import numpy as np

from envstat.hilbert import (
    BipartitePureState,
    DensityOperator,
    StateVector,
    partial_trace_env,
)


def basis_vector(dim: int, index: int) -> StateVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def product_state(a: StateVector, b: StateVector) -> BipartitePureState:
    """Product state |a>_S |b>_E."""
    return BipartitePureState(np.outer(a.amps, b.amps))


def random_state_vector(dim: int, rng: np.random.Generator) -> StateVector:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(z / np.linalg.norm(z))


def random_bipartite_state(dim_sys: int, dim_env: int,
                           rng: np.random.Generator) -> BipartitePureState:
    z = rng.standard_normal((dim_sys, dim_env)) + 1j * rng.standard_normal((dim_sys, dim_env))
    return BipartitePureState(z / np.linalg.norm(z))


def random_density_operator(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Mixed state obtained by tracing half of a random pure dilation."""
    state = random_bipartite_state(dim, dim, rng)
    return partial_trace_env(state)

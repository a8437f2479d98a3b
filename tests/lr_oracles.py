"""L/R-basis oracles for the engine tests: doublet eigenfunctions on a grid
and the block rotation between the energy and the left/right bases."""

import math

import numpy as np

from envstat.errors import RegimeError
from envstat.szilard import EngineConfig


def pair_wavefunctions(cfg: EngineConfig, lower: float, upper: float,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doublet eigenfunctions (psi_plus, psi_minus) on the grid `x`.

    psi_plus is the antisymmetric member at energy `upper`, psi_minus the
    symmetric one at `lower`; both are normalized by trapezoid quadrature
    and signed so their left-well lobes coincide, making
    (psi_plus + psi_minus)/sqrt(2) the left-localized combination.
    """
    if math.isinf(cfg.barrier_height):
        raise RegimeError("eigenfunctions need a finite barrier")
    hbar, m = cfg.hbar, cfg.mass
    l, d, u = cfg.box_length, cfg.barrier_width, cfg.barrier_height
    w = (l - d) / 2.0

    def piecewise(energy: float, antisymmetric: bool) -> np.ndarray:
        q = math.sqrt(2.0 * m * energy) / hbar
        kappa = math.sqrt(2.0 * m * (u - energy)) / hbar
        amp_edge = math.sin(q * w)
        psi = np.zeros_like(x)
        left = x <= -d / 2.0
        right = x >= d / 2.0
        mid = ~(left | right)
        psi[left] = np.sin(q * (l / 2.0 + x[left]))
        deep = kappa * d / 2.0 > 350.0  # cosh/sinh overflow; interior is dead
        if antisymmetric:
            if not deep:
                b = amp_edge / math.sinh(kappa * d / 2.0)
                psi[mid] = -b * np.sinh(kappa * x[mid])
            psi[right] = -np.sin(q * (l / 2.0 - x[right]))
        else:
            if not deep:
                b = amp_edge / math.cosh(kappa * d / 2.0)
                psi[mid] = b * np.cosh(kappa * x[mid])
            psi[right] = np.sin(q * (l / 2.0 - x[right]))
        return psi / math.sqrt(np.trapezoid(psi * psi, x))

    return piecewise(upper, antisymmetric=True), piecewise(lower, antisymmetric=False)


def lr_block_map(n_pairs: int) -> np.ndarray:
    """Unitary relating doublet coordinates (psi+, psi-) to (L, R).

    Columns are L_k = (psi+ + psi-)/sqrt(2) and R_k = (psi- - psi+)/sqrt(2)
    per doublet, stacked block-diagonally.  rho_LR = B^dagger rho_energy B.
    """
    block = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    out = np.zeros((2 * n_pairs, 2 * n_pairs))
    for k in range(n_pairs):
        out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = block
    return out

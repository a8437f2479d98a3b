"""Oracles for the engine tests: the scalar quantization solve, doublet
eigenfunctions on a grid, the split box's Gibbs state in the energy basis,
the block rotation between the energy and the left/right bases, and the
check-by-check validation of EngineState and SplitSpectrum."""

import math

import numpy as np

from envstat.errors import BracketingError, DimensionMismatchError, InvalidStateError, RegimeError
from envstat.szilard import EngineConfig, EngineState, SplitSpectrum, split_partition_function
from envstat.tolerances import DECOMPOSITION


def quantization_mismatch(energy: float, cfg: EngineConfig, antisymmetric: bool) -> float:
    """Logarithmic-derivative mismatch at the barrier edge; zero at eigenvalues.

    q cot(q w) + kappa tanh(kappa d / 2) for symmetric states,
    q cot(q w) + kappa coth(kappa d / 2) for antisymmetric ones,
    with w = (L - d)/2 the well width.
    """
    hbar, m = cfg.hbar, cfg.mass
    w = (cfg.box_length - cfg.barrier_width) / 2.0
    half_d = cfg.barrier_width / 2.0
    q = math.sqrt(2.0 * m * energy) / hbar
    kappa = math.sqrt(2.0 * m * (cfg.barrier_height - energy)) / hbar
    kd = kappa * half_d
    if antisymmetric:
        barrier = kappa / math.tanh(kd) if kd < 350 else kappa
    else:
        barrier = kappa * math.tanh(kd)
    return q / math.tan(q * w) + barrier


def bisect(f, a: float, b: float, fa: float, fb: float,
           xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [a, b] given fa = f(a) != 0 and fb = f(b) of the other sign.

    The iteration of scipy.optimize.bisect, step for step, so the roots are
    bit-identical to it: halve the step, move the left end while the sign
    matches f(a), stop once |step| < xtol + rtol |midpoint|.
    """
    if fb == 0.0:
        return b
    dm = b - a
    for _ in range(maxiter):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise BracketingError(f"bisection did not converge in {maxiter} steps")


def scalar_numeric_split(cfg: EngineConfig, n_pairs: int):
    """(centers, deltas, excluded) of split_spectrum(cfg, "numeric", n_pairs),
    one root at a time through libm: the bitwise oracle of the batched solve."""
    if math.isinf(cfg.barrier_height):
        raise RegimeError("numeric mode needs a finite barrier; use formula mode")
    hbar, m = cfg.hbar, cfg.mass
    w = (cfg.box_length - cfg.barrier_width) / 2.0

    def energy_at(qw: float) -> float:
        return (hbar * qw / w) ** 2 / (2.0 * m)

    roots: list[float] = []  # e_sym, e_anti per retained doublet
    retained = 0
    for k in range(1, n_pairs + 1):
        if energy_at(k * math.pi) >= cfg.barrier_height:
            break  # this doublet and every higher one reach past the barrier top
        lo = energy_at((k - 1) * math.pi + 1e-9)
        hi = energy_at(k * math.pi - 1e-12)
        for anti in (False, True):
            def f(e, anti=anti):
                return quantization_mismatch(e, cfg, anti)
            fa, fb = f(lo), f(hi)
            if fa == 0.0:
                roots.append(lo)
                continue
            if np.sign(fa) == np.sign(fb):
                raise BracketingError(
                    f"no sign change for doublet {k} "
                    f"({'anti' if anti else 'sym'}) in window [{lo:.6g}, {hi:.6g}]")
            roots.append(bisect(f, lo, hi, fa, fb, xtol=1e-14, rtol=1e-12))
        retained = k
    pair_roots = np.array(roots).reshape(retained, 2)
    e_sym, e_anti = pair_roots[:, 0], pair_roots[:, 1]
    return ((e_anti + e_sym) / 2.0, (e_anti - e_sym) / 2.0,
            tuple(range(retained + 1, n_pairs + 1)))


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


def energy_basis_state(split: SplitSpectrum, temperature: float,
                       kb: float = 1.0) -> EngineState:
    """Gibbs state of the split box in the energy basis.

    Each doublet is ordered (psi+, psi-) with weights
    exp(-beta(E_k +- Delta_k))/Z and no coherences; lr_block_map turns it
    into the L/R state that barrier_thermal_state builds.
    """
    beta = 1.0 / (kb * temperature)
    e, d = split.centers, split.deltas
    diag = np.empty(2 * split.count)
    diag[0::2] = np.exp(-beta * (e + d))  # psi+ slots
    diag[1::2] = np.exp(-beta * (e - d))  # psi- slots
    return EngineState(diag / split_partition_function(split, beta))


def raised(build):
    """(exception class, message) of what build() raises, or None: what a
    validator and its sequential oracle are compared on."""
    try:
        build()
    except Exception as exc:  # the class itself is what gets compared
        return type(exc), str(exc)
    return None


def validate_engine_state(weights, coherences=None) -> None:
    """Raise what EngineState(weights, coherences) raises, one check at a
    time with a full pass over the entries for each: the validator's form
    before it decided each property from one aggregate."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InvalidStateError("engine state needs a nonempty 1-d weight vector")
    if not np.all(np.isfinite(w)):
        raise InvalidStateError("engine state weights must be finite (no NaN/Inf)")
    if coherences is not None:
        c = np.asarray(coherences, dtype=np.float64)
        if c.shape != (w.size // 2,):
            raise DimensionMismatchError(
                f"need one coherence per doublet block ({w.size // 2}), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InvalidStateError("engine state coherences must be finite (no NaN/Inf)")
    tr = float(np.sum(w))
    if abs(tr - 1.0) > DECOMPOSITION:
        raise InvalidStateError(f"engine state trace {tr} is not 1")
    if coherences is None:
        eigenvalues = w
    else:
        m = c.size
        a, b = w[0:2 * m:2], w[1:2 * m:2]
        mean = 0.5 * (a + b)
        rad = np.hypot(0.5 * (a - b), c)
        eigenvalues = np.concatenate((mean - rad, mean + rad, w[2 * m:]))
    lo = float(np.min(eigenvalues))
    if lo < -DECOMPOSITION:
        raise InvalidStateError(f"engine state has eigenvalue {lo} < 0")


def validate_split_spectrum(k, centers, deltas) -> None:
    """Raise what SplitSpectrum(..., k, centers, deltas, ...) raises, with
    the negative and merged tests evaluated doublet by doublet always."""
    k = np.asarray(k, dtype=np.int64)
    c = np.asarray(centers, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if not k.ndim == c.ndim == d.ndim == 1 or not k.size == c.size == d.size:
        raise ValueError("k, centers and deltas must be 1-d and of equal length")
    negative = d < 0
    if np.any(negative):
        raise ValueError(f"doublet {k[negative][0]} has negative splitting")
    merged = (d > 0) & (c - d >= c + d)
    if np.any(merged):
        j = np.flatnonzero(merged)[0]
        raise RegimeError(
            f"doublet {k[j]} splitting {d[j]:.3g} is below the float "
            f"resolution of its center {c[j]:.6g}")

"""Spectra of the engine: bare box, split box, and their oracles.

The bare box has levels eps * n^2.  Inserting a thin barrier of height U in
the middle reorganizes the spectrum into near-degenerate doublets centered
at eps' (2k)^2 and separated by twice the tunneling splitting Delta_k.  Two
independent routes compute the doublets: a closed-form estimate and an
exact transcendental quantization solve; a finite-difference Hamiltonian on
a uniform grid acts as a second oracle for the numeric route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BracketingError, RegimeError
from ..hilbert import _freeze
from .config import EngineConfig

__all__ = [
    "BoxSpectrum",
    "SplitSpectrum",
    "box_spectrum",
    "split_spectrum",
    "fd_pair_energies",
]


@dataclass(frozen=True)
class BoxSpectrum:
    """Levels eps * n^2 of the bare box for n = 1..n_max."""

    epsilon: float
    n_max: int

    @property
    def energies(self) -> np.ndarray:
        n = np.arange(1, self.n_max + 1)
        return self.epsilon * n * n


@dataclass(frozen=True, eq=False)
class SplitSpectrum:
    """Doublet spectrum of the box with the barrier in place.

    Doublet k has members centers - deltas and centers + deltas (the half
    gap Delta_k); k, centers and deltas are read-only arrays of equal
    length.  source records which route produced it ("formula" or
    "numeric").  excluded lists doublet indices above the tunneling regime
    (U <= E_k).
    """

    epsilon_prime: float
    k: np.ndarray
    centers: np.ndarray
    deltas: np.ndarray
    source: str
    excluded: tuple[int, ...] = ()

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.int64)
        c = np.asarray(self.centers, dtype=np.float64)
        d = np.asarray(self.deltas, dtype=np.float64)
        if not k.ndim == c.ndim == d.ndim == 1 or not k.size == c.size == d.size:
            raise ValueError("k, centers and deltas must be 1-d and of equal length")
        negative = d < 0
        if np.any(negative):
            raise ValueError(f"doublet {k[negative][0]} has negative splitting")
        merged = (d > 0) & (c - d >= c + d)
        if np.any(merged):
            raise ValueError(f"doublet {k[merged][0]} members do not interleave")
        object.__setattr__(self, "k", _freeze(k))
        object.__setattr__(self, "centers", _freeze(c))
        object.__setattr__(self, "deltas", _freeze(d))

    @property
    def count(self) -> int:
        return self.k.size

    @property
    def energies(self) -> np.ndarray:
        """Levels ascending within each doublet: lower_1, upper_1, lower_2, ..."""
        out = np.empty(2 * self.count)
        out[0::2] = self.centers - self.deltas
        out[1::2] = self.centers + self.deltas
        return out

    @property
    def wide(self) -> tuple[int, ...]:
        """Doublets whose splitting is not small against their center
        (ratio >= 0.1), where the doublet picture degrades."""
        return tuple(self.k[self.deltas / self.centers >= 0.1].tolist())


def box_spectrum(cfg: EngineConfig) -> BoxSpectrum:
    """Bare-box levels 1..n_trunc."""
    return BoxSpectrum(epsilon=cfg.epsilon, n_max=cfg.n_trunc)


# ---------------------------------------------------------------------------
# the split spectrum
# ---------------------------------------------------------------------------

def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn applied by the C library, element by element.  numpy's SIMD
    exp/cosh/sinh may differ from it in the last bit, and reported
    splittings and measurement probabilities are pinned to libm's."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def _formula_split(cfg: EngineConfig, n_pairs: int) -> SplitSpectrum:
    epsp = cfg.epsilon_prime
    u = cfg.barrier_height
    k = np.arange(1, n_pairs + 1)
    centers = epsp * (2 * k) ** 2
    inside = centers < u
    k, centers = k[inside], centers[inside]
    if math.isinf(u):
        deltas = np.zeros(k.size)
    else:
        # action of the under-barrier traversal, in units of hbar
        action = cfg.barrier_width * np.sqrt(2.0 * cfg.mass * (u - centers)) / cfg.hbar
        deltas = (4.0 * epsp / math.pi) * _libm(math.exp, -action)
    return SplitSpectrum(epsp, k, centers, deltas, "formula",
                         tuple(range(k.size + 1, n_pairs + 1)))


def _quantization_mismatch(energy: float, cfg: EngineConfig, antisymmetric: bool) -> float:
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


def _bisect(f, a: float, b: float, fa: float, fb: float,
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


def _numeric_split(cfg: EngineConfig, n_pairs: int) -> SplitSpectrum:
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
                return _quantization_mismatch(e, cfg, anti)
            fa, fb = f(lo), f(hi)
            if fa == 0.0:
                roots.append(lo)
                continue
            if np.sign(fa) == np.sign(fb):
                raise BracketingError(
                    f"no sign change for doublet {k} "
                    f"({'anti' if anti else 'sym'}) in window [{lo:.6g}, {hi:.6g}]")
            roots.append(_bisect(f, lo, hi, fa, fb, xtol=1e-14, rtol=1e-12))
        retained = k
    pair_roots = np.array(roots).reshape(retained, 2)
    e_sym, e_anti = pair_roots[:, 0], pair_roots[:, 1]
    return SplitSpectrum(cfg.epsilon_prime, np.arange(1, retained + 1),
                         (e_anti + e_sym) / 2.0, (e_anti - e_sym) / 2.0, "numeric",
                         tuple(range(retained + 1, n_pairs + 1)))


def split_spectrum(cfg: EngineConfig, mode: str = "numeric",
                   n_pairs: int | None = None) -> SplitSpectrum:
    """Doublet spectrum; mode "formula" uses the closed-form splitting,
    mode "numeric" solves the quantization conditions by bracketed bisection
    to 1e-12 relative tolerance."""
    if n_pairs is None:
        n_pairs = max(cfg.n_trunc // 2, 1)
    if mode == "formula":
        return _formula_split(cfg, n_pairs)
    if mode == "numeric":
        return _numeric_split(cfg, n_pairs)
    raise ValueError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _fd_eigenvalues(cfg: EngineConfig, n_interior: int, n_levels: int) -> np.ndarray:
    from scipy.linalg import eigh_tridiagonal  # the oracle alone needs scipy

    l, d, u = cfg.box_length, cfg.barrier_width, cfg.barrier_height
    dx = l / (n_interior + 1)
    x = -l / 2.0 + dx * np.arange(1, n_interior + 1)
    # cell-averaged potential: fraction of [x - dx/2, x + dx/2] under the
    # barrier; a step exactly on a node counts half, sub-cell barriers keep
    # their integrated weight
    overlap = (np.minimum(x + dx / 2.0, d / 2.0)
               - np.maximum(x - dx / 2.0, -d / 2.0))
    v = u * np.clip(overlap, 0.0, None) / dx
    t = cfg.hbar**2 / (2.0 * cfg.mass * dx * dx)
    diag = 2.0 * t + v
    off = np.full(n_interior - 1, -t)
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, n_levels - 1), eigvals_only=True)
    return vals


def fd_pair_energies(cfg: EngineConfig, n_pairs: int) -> np.ndarray:
    """Lowest 2*n_pairs eigenvalues from a uniform-grid Hamiltonian.

    The grid has 1e4 intervals so that for d/L in {0.01, 0.05} the barrier
    edges land exactly on nodes.  Richardson extrapolation against the
    half-resolution grid (5e3 intervals) removes the O(dx^2) truncation
    bias, which would otherwise sit near the 1e-6 relative level for the
    fifth doublet.  Returned ascending: [sym_1, anti_1, sym_2, anti_2, ...].
    """
    if math.isinf(cfg.barrier_height):
        raise RegimeError("finite-difference oracle needs a finite barrier")
    vals = _fd_eigenvalues(cfg, 9999, 2 * n_pairs)
    half = _fd_eigenvalues(cfg, 4999, 2 * n_pairs)
    return (4.0 * vals - half) / 3.0

"""Spectra of the engine: bare box, split box, and their oracles.

The bare box has levels eps * n^2.  Inserting a thin barrier of height U in
the middle reorganizes the spectrum into near-degenerate doublets centered
at eps' (2k)^2 and separated by twice the tunneling splitting Delta_k.  Two
independent routes compute the doublets: a closed-form estimate and an
exact transcendental quantization solve, which bisects every root of a
batch of configs together in numpy with its bits pinned to libm's tan and
tanh; a finite-difference Hamiltonian on
a uniform grid acts as a second oracle for the numeric route.  Its levels
are the roots of a closed-form discrete phase per parity sector, so the
oracle needs numpy alone and O(1) work per level and bisection step.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
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
    "split_spectra",
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
        # fmin and fmax skip NaN, as the elementwise comparisons do; the
        # per-doublet tests run only to name a failure or when some Delta > 0
        if np.fmin.reduce(d, initial=0.0) < 0:
            raise ValueError(f"doublet {k[d < 0][0]} has negative splitting")
        if np.fmax.reduce(d, initial=0.0) > 0:
            merged = (d > 0) & (c - d >= c + d)
            if merged.any():
                j = np.flatnonzero(merged)[0]
                raise RegimeError(
                    f"doublet {k[j]} splitting {d[j]:.3g} is below the float "
                    f"resolution of its center {c[j]:.6g}")
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


# scipy.optimize.bisect's tolerances and step limit, per root
_XTOL, _RTOL, _MAXITER = 1e-14, 1e-12, 100
# a mismatch within this share of its two terms' size may take its sign
# from the last bits of tan and tanh, where numpy's SIMD kernels and libm
# part (by up to 1 and 3 ulp on x86-64 with AVX-512, numpy 2.4, glibc 2.36)
_PIN = 64.0 * np.finfo(np.float64).eps


def _mismatch(e: np.ndarray, p: tuple, tan, tanh) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic-derivative mismatch at the barrier edge, zero at
    eigenvalues, and the size |q cot(q w)| + |barrier term| of its terms.

    q cot(q w) + kappa tanh(kappa d / 2) for symmetric states,
    q cot(q w) + kappa coth(kappa d / 2) for antisymmetric ones,
    with w = (L - d)/2 the well width.  p holds each root's
    (2m, hbar, U, d/2, w, antisymmetric); the operations run in the order
    of the scalar formula, so only tan and tanh can round differently.
    """
    two_m, hbar, u, half_d, w, anti = p
    q = np.sqrt(two_m * e) / hbar
    kappa = np.sqrt(two_m * (u - e)) / hbar
    edge = tanh(kappa * half_d)
    well = q / tan(q * w)
    barrier = np.divide(kappa, edge, out=kappa * edge, where=anti)
    return well + barrier, np.abs(well) + np.abs(barrier)


def _libm_mismatch(e: np.ndarray, p: tuple) -> np.ndarray:
    return _mismatch(e, p, functools.partial(_libm, math.tan),
                     functools.partial(_libm, math.tanh))[0]


def _pinned_mismatch(e: np.ndarray, p: tuple) -> np.ndarray:
    """The mismatch through numpy's tan and tanh, taken again from libm
    wherever their last bits could decide its sign or zero."""
    f, size = _mismatch(e, p, np.tan, np.tanh)
    near = np.abs(f) <= _PIN * size
    if near.any():
        f[near] = _libm_mismatch(e[near], tuple(x[near] for x in p))
    return f


def _bisect(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
            p: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the mismatch in [a, b], one per element, given fa != 0 and
    fb of the other sign or zero.

    Each element runs the iteration of scipy.optimize.bisect step for step,
    so the roots are bit-identical to it: halve the step, move the left end
    while the sign matches f(a), stop once f(mid) = 0 or
    |step| < xtol + rtol |mid|.  Returns the roots and the indices of the
    elements that did not stop within maxiter steps.
    """
    roots = b.copy()
    live = np.flatnonzero(fb != 0.0)
    a, fa, dm = a[live], fa[live], b[live] - a[live]
    p = tuple(x[live] for x in p)
    for _ in range(_MAXITER):
        if not live.size:
            break
        dm *= 0.5
        xm = a + dm
        fm = _pinned_mismatch(xm, p)
        a = np.where(fm * fa >= 0.0, xm, a)
        stop = (fm == 0.0) | (np.abs(dm) < _XTOL + _RTOL * np.abs(xm))
        if stop.any():
            roots[live[stop]] = xm[stop]
            keep = ~stop
            live, a, fa, dm = live[keep], a[keep], fa[keep], dm[keep]
            p = tuple(x[keep] for x in p)
    return roots, live


def _root_windows(cfg: EngineConfig, n_pairs: int) -> np.ndarray:
    """Bracket (lo, hi) of each doublet below the barrier top, one row per
    doublet: doublet k's two roots lie where q w runs from (k - 1) pi to k pi."""
    hbar, m = cfg.hbar, cfg.mass
    w = (cfg.box_length - cfg.barrier_width) / 2.0

    def energy_at(qw: float) -> float:
        return (hbar * qw / w) ** 2 / (2.0 * m)  # libm pow, as the levels always took it

    retained = 0  # past the first window whose top reaches U, every higher one does
    while retained < n_pairs and energy_at((retained + 1) * math.pi) < cfg.barrier_height:
        retained += 1
    return np.array([(energy_at((k - 1) * math.pi + 1e-9), energy_at(k * math.pi - 1e-12))
                     for k in range(1, retained + 1)], dtype=np.float64).reshape(retained, 2)


def split_spectra(cfgs: Iterable[EngineConfig], n_pairs: int) -> Iterator[SplitSpectrum]:
    """Numeric doublet spectra of several engines, their n_pairs lowest
    doublets each, with every quantization root bisected together.

    The roots are those of the scalar bisection to 1e-12 relative tolerance,
    bit for bit: the bracket ends and any mismatch too small to sign
    through numpy's tan and tanh are evaluated by libm.  The spectra are
    yielded in config order, and a config's error (an infinite barrier, a
    window without a sign change, a bisection that does not converge, or
    doublets SplitSpectrum rejects) is raised when its turn comes, so a
    caller may take its own steps between them.
    """
    cfgs = tuple(cfgs)
    finite = [cfg for cfg in cfgs if not math.isinf(cfg.barrier_height)]
    windows = [_root_windows(cfg, n_pairs) for cfg in finite]
    pairs = np.array([len(win) for win in windows], dtype=np.int64)
    per_config = np.array([(2.0 * c.mass, c.hbar, c.barrier_height, c.barrier_width / 2.0,
                            (c.box_length - c.barrier_width) / 2.0) for c in finite])
    p = (*np.repeat(per_config.reshape(-1, 5), 2 * pairs, axis=0).T,
         np.tile([False, True], int(pairs.sum())))
    # roots run config by config, doublet by doublet, symmetric then antisymmetric
    lo, hi = np.repeat(np.concatenate([np.empty((0, 2)), *windows]), 2, axis=0).T
    # a term or product past the float range is inf, as with Python floats
    with np.errstate(over="ignore"):
        fa, fb = _libm_mismatch(lo, p), _libm_mismatch(hi, p)
        unbracketed = (fa != 0.0) & (np.sign(fa) == np.sign(fb))
        solve = np.flatnonzero((fa != 0.0) & ~unbracketed)
        roots = lo.copy()
        roots[solve], stuck = _bisect(lo[solve], hi[solve], fa[solve], fb[solve],
                                      tuple(x[solve] for x in p))
    failed = unbracketed.copy()
    failed[solve[stuck]] = True

    solved = iter(zip(windows, np.cumsum(2 * pairs) - 2 * pairs))
    for cfg in cfgs:
        if math.isinf(cfg.barrier_height):
            raise RegimeError("numeric mode needs a finite barrier; use formula mode")
        win, start = next(solved)
        retained = len(win)
        bad = np.flatnonzero(failed[start:start + 2 * retained])
        if bad.size:
            j = int(bad[0])
            if unbracketed[start + j]:
                raise BracketingError(
                    f"no sign change for doublet {j // 2 + 1} "
                    f"({'anti' if j % 2 else 'sym'}) in window "
                    f"[{win[j // 2, 0]:.6g}, {win[j // 2, 1]:.6g}]")
            raise BracketingError(f"bisection did not converge in {_MAXITER} steps")
        e_sym, e_anti = roots[start:start + 2 * retained].reshape(retained, 2).T
        yield SplitSpectrum(cfg.epsilon_prime, np.arange(1, retained + 1),
                            (e_anti + e_sym) / 2.0, (e_anti - e_sym) / 2.0, "numeric",
                            tuple(range(retained + 1, n_pairs + 1)))


def split_spectrum(cfg: EngineConfig, mode: str = "numeric",
                   n_pairs: int | None = None) -> SplitSpectrum:
    """Doublet spectrum; mode "formula" uses the closed-form splitting,
    mode "numeric" solves the quantization conditions by bracketed bisection
    to 1e-12 relative tolerance, as the batch of one of split_spectra: all
    roots bisected together, bit for bit the scalar libm solve."""
    if n_pairs is None:
        n_pairs = max(cfg.n_trunc // 2, 1)
    if mode == "formula":
        return _formula_split(cfg, n_pairs)
    if mode == "numeric":
        return next(split_spectra((cfg,), n_pairs))
    raise ValueError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _fd_grid(cfg: EngineConfig, n_interior: int):
    """Cell-averaged potential on the centre node and the right half of the
    grid on n_interior (odd) nodes, the number of leading cells wholly under
    the barrier, and the hopping t = hbar^2 / (2 m dx^2)."""
    l, d, u = cfg.box_length, cfg.barrier_width, cfg.barrier_height
    dx = l / (n_interior + 1)
    x = dx * np.arange(n_interior // 2 + 1)
    # fraction of [x - dx/2, x + dx/2] under the barrier; a step exactly on
    # a node counts half, sub-cell barriers keep their integrated weight,
    # and a cell wholly inside is exactly u (the difference of overlaps
    # would leave it a few ulp off)
    overlap = (np.minimum(x + dx / 2.0, d / 2.0)
               - np.maximum(x - dx / 2.0, -d / 2.0))
    v = u * np.clip(overlap, 0.0, None) / dx
    full = int(np.count_nonzero(x + dx / 2.0 <= d / 2.0))
    v[:full] = u
    return v, full, cfg.hbar**2 / (2.0 * cfg.mass * dx * dx)


def _fd_eigenvalues(cfg: EngineConfig, n_interior, n_pairs: int) -> np.ndarray:
    """Lowest n_pairs eigenvalues of each parity sector of the grid
    Hamiltonian on n_interior (odd) nodes, interleaved [sym_1, anti_1, ...];
    n_interior may be a sequence of grid sizes, solved together, one row each.

    The box and its centred barrier are mirror-symmetric and a node sits at
    x = 0, so the tridiagonal Hamiltonian splits exactly into an even sector
    (psi_-1 = psi_1) and an odd one (psi_0 = 0) on the right half.  Its
    potential has three pieces: m cells wholly under the barrier (exactly
    U), one or two fractional edge cells, and the free well up to the wall
    node psi_(half+1) = 0.  Each piece is carried in closed form by the
    log-derivative s_i = psi_i / psi_(i-1) - 1 and the wall phase

        Phi(E) = (half + 2 - j) theta + atan2(sin theta, s_j + E / 2t),

    with theta = 2 asin(sqrt(E / 4t)) and j the first free node.  Under the
    barrier (E < U, phi = 2 asinh(sqrt((U - E) / 4t))) the even sector has
    s_m = (U - E)/2t + sinh(phi) tanh((m - 1) phi), the odd one the same
    with coth; an edge cell steps s <- (v_i - E)/t + s / (1 + s).  While
    every node ratio 1 + s_i is positive and theta < pi, Phi is continuous
    and increasing (oscillation theorem for Jacobi matrices), and the k-th
    level of the sector is its root of Phi = k pi, which lies where the
    well term alone passes (k - 1) pi and k pi.  All roots are bisected
    together to adjacent floats.  Raises RegimeError when a level reaches
    past the barrier top or the grid is too coarse for the phase picture.
    """
    grids = np.atleast_1d(n_interior)
    u = cfg.barrier_height
    shape = (grids.size, 2, 1)  # grid, sector (even, odd), level
    t, w, c, b, bar, n, nfree = (np.empty(shape) for _ in range(7))
    starts = []
    for g, size in enumerate(grids.tolist()):
        v, m, t[g] = _fd_grid(cfg, size)
        j = int(np.count_nonzero(v))  # the potential falls off monotonically
        # per sector: first carried node p, then s_p = c (w - E)/t + b, plus
        # the barrier-run term sinh(phi) tanh/coth(n phi) where bar = 1;
        # with no full cell, psi_-1 = psi_1 gives s_1 = (v_0 - E)/2t
        even = (m, u, 0.5, 0.0, 1.0, m - 1) if m >= 1 else (1, v[0], 0.5, 0.0, 0.0, 0)
        # psi_0 = 0 makes s_1 infinite, so s_2 = (v_1 - E)/t + 1
        odd = (m, u, 0.5, 0.0, 1.0, m - 1) if m >= 2 else (2, v[1], 1.0, 1.0, 0.0, 1)
        for sector, (p, *start) in enumerate((even, odd)):
            w[g, sector], c[g, sector], b[g, sector], bar[g, sector], n[g, sector] = start
            starts.append((g, sector, p, v[p:max(j, p)]))
    # step every sector through the same number of cells: a padded v = 0
    # step is the free recurrence itself, so the well just starts later
    width = max(len(cells) for *_, cells in starts)
    steps = np.zeros((width,) + shape)
    for g, sector, p, cells in starts:
        steps[:len(cells), g, sector, 0] = cells
        nfree[g, sector] = grids[g] // 2 + 2 - (p + width)

    def wall_phase(e):
        """(Phi(E), smallest node ratio 1 + s_i on the way to the well)."""
        phi = 2.0 * np.arcsinh(np.sqrt((u - e) / (4.0 * t)))
        run = np.tanh(n * phi)
        run[:, 1] = 1.0 / run[:, 1]  # coth in the odd sector, where n >= 1
        s = c * (w - e) / t + b + bar * np.sinh(phi) * run
        ratio = 1.0 + s
        for cell in steps:
            s = (cell - e) / t + s / (1.0 + s)
            ratio = np.minimum(ratio, 1.0 + s)
        theta = 2.0 * np.arcsin(np.sqrt(e / (4.0 * t)))
        return nfree * theta + np.arctan2(np.sin(theta), s + e / (2.0 * t)), ratio

    k = np.arange(1, n_pairs + 1)
    if n_pairs >= np.min(nfree):
        raise RegimeError(
            f"{n_pairs} finite-difference levels per sector need a finer grid "
            f"than {int(np.min(grids))} nodes")
    target = k * math.pi
    lo = 4.0 * t * np.sin((k - 1) * math.pi / (2.0 * nfree)) ** 2
    hi = np.minimum(4.0 * t * np.sin(k * math.pi / (2.0 * nfree)) ** 2,
                    np.nextafter(u, 0.0))
    phase_hi, ratio = wall_phase(hi)
    if np.any(ratio <= 0.0):
        raise RegimeError("finite-difference levels this high change sign inside "
                          "the barrier edge cells; the grid is too coarse")
    # a level pinned at its free-well bracket top by a barrier too high to
    # tunnel through has a phase there of k pi, which rounding may leave up
    # to 2 ulp short; a level past the barrier top falls short by far more
    short = phase_hi < target - 4.0 * np.spacing(target)
    if np.any(short):
        _, sector, level = np.argwhere(short)[0]
        raise RegimeError(
            f"finite-difference level {level + 1} of the {('even', 'odd')[sector]} "
            f"sector reaches past the barrier top U = {u:g}")
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        below = wall_phase(mid)[0] < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    vals = np.swapaxes(hi, -1, -2).reshape(grids.size, 2 * n_pairs)
    return vals.reshape(np.shape(n_interior) + (2 * n_pairs,))


def fd_pair_energies(cfg: EngineConfig, n_pairs: int) -> np.ndarray:
    """Lowest 2*n_pairs eigenvalues from a uniform-grid Hamiltonian.

    The grid has 1e4 intervals so that for d/L in {0.01, 0.05} the barrier
    edges land exactly on nodes.  Richardson extrapolation against the
    half-resolution grid (5e3 intervals) removes the O(dx^2) truncation
    bias, which would otherwise sit near the 1e-6 relative level for the
    fifth doublet.  Each grid is solved per parity sector, every level as
    the root of its sector's wall phase (see _fd_eigenvalues), both grids
    in one vectorised bisection.  Returned ascending:
    [sym_1, anti_1, sym_2, anti_2, ...].  Raises RegimeError for a level at
    or above the barrier top, where the phase form stops.
    """
    if math.isinf(cfg.barrier_height):
        raise RegimeError("finite-difference oracle needs a finite barrier")
    fine, coarse = _fd_eigenvalues(cfg, (9999, 4999), n_pairs)
    return (4.0 * fine - coarse) / 3.0

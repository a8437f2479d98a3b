"""Box and split spectra, oracles, limits, wavefunctions."""

import math

import numpy as np
import pytest

from envstat.errors import RegimeError
from envstat.scenarios import resolve_config, run_scenario
from envstat.szilard import (
    EngineConfig,
    SplitSpectrum,
    box_spectrum,
    fd_pair_energies,
    split_spectrum,
)
from envstat.szilard.spectrum import _fd_eigenvalues
from lr_oracles import lr_block_map, pair_wavefunctions


def finite_barrier_config(u=1200.0, d_over_l=0.05, n_trunc=12):
    return EngineConfig.natural(eps_beta=1.0, d_over_l=d_over_l,
                                barrier_height=u, n_trunc=n_trunc)


# ---------------------------------------------------------------------------
# bare box
# ---------------------------------------------------------------------------

def test_natural_units_give_unit_epsilon():
    cfg = EngineConfig.natural(eps_beta=1.0, n_trunc=10)
    spec = box_spectrum(cfg)
    assert spec.epsilon == pytest.approx(1.0, abs=1e-15)
    n = np.arange(1, 11)
    assert spec.energies.shape == (10,)
    assert spec.energies == pytest.approx((n * n).astype(float), abs=1e-12)


def test_doubling_length_quarters_epsilon():
    a = EngineConfig(mass=0.5, box_length=math.pi, barrier_width=0.01,
                     barrier_height=math.inf, temperature=1.0, n_trunc=12)
    b = EngineConfig(mass=0.5, box_length=2 * math.pi, barrier_width=0.01,
                     barrier_height=math.inf, temperature=1.0, n_trunc=12)
    assert box_spectrum(b).epsilon == pytest.approx(box_spectrum(a).epsilon / 4.0,
                                                    rel=1e-14)


def test_auto_truncation_controls_tail():
    cfg = EngineConfig.natural(eps_beta=1e-3)
    assert math.exp(-cfg.eps_beta * cfg.n_trunc**2) < 1e-12
    assert cfg.n_trunc**2 * cfg.eps_beta >= 20.0


def test_thin_barrier_enforced():
    with pytest.raises(ValueError):
        EngineConfig.natural(d_over_l=0.10)


def test_high_barrier_flag():
    assert finite_barrier_config(u=1200.0).high_barrier
    assert not EngineConfig.natural(eps_beta=1e-3, barrier_height=1.0).high_barrier
    assert EngineConfig.natural().high_barrier  # infinite barrier


# ---------------------------------------------------------------------------
# split spectrum
# ---------------------------------------------------------------------------

def test_infinite_barrier_formula_has_zero_splitting():
    cfg = EngineConfig.natural(eps_beta=1.0, n_trunc=10)
    split = split_spectrum(cfg, "formula", n_pairs=4)
    assert np.all(split.deltas == 0.0)
    assert np.allclose(split.centers,
                       [cfg.epsilon_prime * (2 * k) ** 2 for k in (1, 2, 3, 4)],
                       rtol=1e-14)


def test_numeric_mode_needs_finite_barrier():
    cfg = EngineConfig.natural(eps_beta=1.0, n_trunc=10)
    with pytest.raises(RegimeError):
        split_spectrum(cfg, "numeric", n_pairs=2)


def test_huge_barrier_gives_degenerate_doublets():
    cfg = finite_barrier_config(u=1e4)
    split = split_spectrum(cfg, "numeric", n_pairs=3)
    assert split.count == 3
    assert np.all(2.0 * split.deltas < 1e-6 * split.centers)


def test_vanishing_barrier_recovers_box_levels():
    cfg = finite_barrier_config()
    thin = EngineConfig(mass=cfg.mass, box_length=cfg.box_length,
                        barrier_width=1e-12 * cfg.box_length,
                        barrier_height=cfg.barrier_height,
                        temperature=cfg.temperature, n_trunc=cfg.n_trunc)
    split = split_spectrum(thin, "numeric", n_pairs=5)
    box = box_spectrum(cfg).energies[:10]
    got = split.energies
    assert np.max(np.abs(got - box) / box) < 1e-6


def test_levels_above_barrier_are_excluded():
    cfg = finite_barrier_config(u=50.0)
    split = split_spectrum(cfg, "numeric", n_pairs=5)
    assert split.excluded  # high doublets fall out of the tunneling regime
    assert np.all(split.centers + split.deltas < 50.0)


def test_doublets_interleave_and_are_ordered():
    split = split_spectrum(finite_barrier_config(), "numeric", n_pairs=5)
    energies = split.energies
    assert energies.shape == (10,)
    assert np.all(energies[0::2] < energies[1::2])
    assert np.all(np.diff(energies) > 0)


def test_splitting_decays_with_width_both_routes():
    deltas_num, deltas_form = [], []
    for d_over_l in (0.01, 0.02, 0.04):
        cfg = finite_barrier_config(u=400.0, d_over_l=d_over_l)
        deltas_num.append(split_spectrum(cfg, "numeric", n_pairs=2).deltas)
        deltas_form.append(split_spectrum(cfg, "formula", n_pairs=2).deltas)
    for seq in (deltas_num, deltas_form):
        assert np.all(seq[1] < seq[0]) and np.all(seq[2] < seq[1])


def test_splitting_decays_with_height():
    deltas = [split_spectrum(finite_barrier_config(u=u), "numeric", n_pairs=3).deltas
              for u in (400.0, 800.0, 1600.0)]
    assert np.all(deltas[1] < deltas[0]) and np.all(deltas[2] < deltas[1])


def test_formula_asymptotics_frozen_against_numeric():
    # closed-form estimate vs exact doublets at U = 200; the ratios are a
    # frozen regression of the k-dependence the estimate lacks
    cfg = finite_barrier_config(u=200.0)
    num = split_spectrum(cfg, "numeric", n_pairs=3)
    form = split_spectrum(cfg, "formula", n_pairs=3)
    ratios = form.deltas / num.deltas
    assert np.allclose(ratios, [1.9397, 0.5065, 0.2438], rtol=1e-3)


def test_split_spectrum_validation():
    with pytest.raises(ValueError):
        SplitSpectrum(1.0, [1], [4.0], [-0.1], "numeric")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_oracle_agrees_with_bisection():
    cfg = finite_barrier_config()
    split = split_spectrum(cfg, "numeric", n_pairs=5)
    fd = fd_pair_energies(cfg, 5)
    exact = split.energies
    assert np.max(np.abs(fd - exact) / exact) < 1e-6


def test_fd_richardson_improves_plain_grid():
    cfg = finite_barrier_config()
    split = split_spectrum(cfg, "numeric", n_pairs=3)
    exact = split.energies
    plain = _fd_eigenvalues(cfg, 9999, 3)  # the finer of the two grids alone
    extrap = fd_pair_energies(cfg, 3)
    assert np.max(np.abs(extrap - exact)) < np.max(np.abs(plain - exact))


def _dense_grid_hamiltonian(cfg, n_interior):
    """The full-grid Hamiltonian as a dense matrix on nodes x_i = -L/2 + i dx,
    built without the mirror symmetry the oracle exploits."""
    l, d, u = cfg.box_length, cfg.barrier_width, cfg.barrier_height
    dx = l / (n_interior + 1)
    x = -l / 2.0 + dx * np.arange(1, n_interior + 1)
    overlap = np.minimum(x + dx / 2.0, d / 2.0) - np.maximum(x - dx / 2.0, -d / 2.0)
    v = u * np.clip(overlap, 0.0, None) / dx
    t = cfg.hbar**2 / (2.0 * cfg.mass * dx * dx)
    hop = np.eye(n_interior, k=1) + np.eye(n_interior, k=-1)
    return np.diag(2.0 * t + v) - t * hop


@pytest.mark.parametrize("n_interior", [201, 401])
@pytest.mark.parametrize("u", [1200.0, 4800.0])
@pytest.mark.parametrize("d_over_l", [0.05, 0.01])
def test_parity_sectors_match_dense_full_grid(n_interior, u, d_over_l):
    cfg = finite_barrier_config(u=u, d_over_l=d_over_l, n_trunc=32)
    h = _dense_grid_hamiltonian(cfg, n_interior)
    dense = np.linalg.eigvalsh(h)[:32]
    sectors = _fd_eigenvalues(cfg, n_interior, 16)
    # bisection and the dense solver each land within a few ulp * ||H||
    tol = 4.0 * np.finfo(np.float64).eps * np.linalg.norm(h, 2)
    assert np.max(np.abs(np.sort(sectors) - dense)) <= tol
    # sym_k < anti_k < sym_(k+1)
    assert np.all(np.diff(sectors) > 0)


@pytest.mark.parametrize("u", [1200.0, 4800.0])
@pytest.mark.parametrize("n_pairs", [5, 16])
@pytest.mark.parametrize("d_over_l", [0.05, 0.01])
def test_spectrum_split_passes_at_workload_corners(u, n_pairs, d_over_l):
    rep = run_scenario(resolve_config({
        "scenario": "spectrum-split",
        "engine": {"barrier_height": u, "n_trunc": 2 * n_pairs,
                   "barrier_width": d_over_l * math.pi},
        "params": {"n_pairs": n_pairs}}))
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert len(rep.table.rows) == n_pairs


# ---------------------------------------------------------------------------
# wavefunctions and the L/R map
# ---------------------------------------------------------------------------

def test_lr_block_map_is_orthogonal_round_trip():
    b = lr_block_map(4)
    assert np.max(np.abs(b.T @ b - np.eye(8))) < 1e-12
    assert np.max(np.abs(b @ b.T - np.eye(8))) < 1e-12


def test_left_state_localizes_in_left_half():
    cfg = finite_barrier_config(u=1e3)
    split = split_spectrum(cfg, "numeric", n_pairs=3)
    x = np.linspace(-cfg.box_length / 2.0, cfg.box_length / 2.0, 10_001)
    for lower, upper in split.energies.reshape(-1, 2):
        psi_plus, psi_minus = pair_wavefunctions(cfg, lower, upper, x)
        left_state = (psi_plus + psi_minus) / math.sqrt(2.0)
        right_state = (psi_minus - psi_plus) / math.sqrt(2.0)
        weight_left = np.trapezoid(left_state[x <= 0] ** 2, x[x <= 0])
        assert weight_left >= 0.999
        overlap = np.trapezoid(left_state * right_state, x)
        assert abs(overlap) < 1e-12


def test_wavefunctions_orthonormal_on_grid():
    cfg = finite_barrier_config(u=1e3)
    split = split_spectrum(cfg, "numeric", n_pairs=2)
    x = np.linspace(-cfg.box_length / 2.0, cfg.box_length / 2.0, 10_001)
    psi_plus, psi_minus = pair_wavefunctions(cfg, *split.energies[:2], x)
    assert np.trapezoid(psi_plus**2, x) == pytest.approx(1.0, abs=1e-10)
    assert np.trapezoid(psi_plus * psi_minus, x) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# array representation and the ported bisection
# ---------------------------------------------------------------------------

def test_box_energies_are_the_per_level_products():
    cfg = EngineConfig(mass=3.0, box_length=2.0, barrier_width=0.02,
                       barrier_height=math.inf, temperature=40.0, hbar=2.0, n_trunc=300)
    eps = cfg.epsilon
    assert box_spectrum(cfg).energies.tolist() == [eps * n * n for n in range(1, 301)]


@pytest.mark.parametrize("u,d_over_l,n_pairs", [
    (200.0, 0.05, 16), (1200.0, 0.05, 16), (4800.0, 0.05, 16), (math.inf, 0.05, 16),
    (1e5, 0.01, 160)])  # 13 of these 142 splittings differ under numpy's exp
def test_formula_split_matches_scalar_closed_form(u, d_over_l, n_pairs):
    cfg = finite_barrier_config(u=u, d_over_l=d_over_l, n_trunc=2 * n_pairs)
    split = split_spectrum(cfg, "formula", n_pairs=n_pairs)
    epsp = cfg.epsilon_prime
    centers, deltas = [], []
    for k in range(1, n_pairs + 1):
        center = epsp * (2 * k) ** 2
        if u <= center:
            continue
        action = cfg.barrier_width * math.sqrt(2.0 * cfg.mass * (u - center)) / cfg.hbar
        centers.append(center)
        deltas.append(0.0 if math.isinf(u) else (4.0 * epsp / math.pi) * math.exp(-action))
    assert split.k.tolist() == list(range(1, len(centers) + 1))
    assert split.centers.tolist() == centers
    assert split.deltas.tolist() == deltas
    assert split.excluded == tuple(range(len(centers) + 1, n_pairs + 1))


def test_split_arrays_are_read_only():
    split = split_spectrum(finite_barrier_config(), "numeric", n_pairs=3)
    for arr in (split.k, split.centers, split.deltas):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_split_spectrum_rejects_merged_members_and_ragged_arrays():
    with pytest.raises(RegimeError, match="doublet 1 splitting 1 is below the float "
                       "resolution of its center 1e\\+20"):
        SplitSpectrum(1.0, [1], [1e20], [1.0], "numeric")  # c -+ 1 round to c
    with pytest.raises(ValueError, match="equal length"):
        SplitSpectrum(1.0, [1, 2], [4.0], [0.1], "numeric")


@pytest.mark.parametrize("u", [1200.0, 2400.0, 3600.0, 4800.0])
def test_ported_bisect_is_bit_identical_to_scipy(u):
    from scipy.optimize import bisect

    from envstat.szilard.spectrum import _bisect, _quantization_mismatch

    cfg = finite_barrier_config(u=u, n_trunc=32)
    w = (cfg.box_length - cfg.barrier_width) / 2.0

    def energy_at(qw):
        return (cfg.hbar * qw / w) ** 2 / (2.0 * cfg.mass)

    for k in range(1, 17):
        lo = energy_at((k - 1) * math.pi + 1e-9)
        hi = energy_at(k * math.pi - 1e-12)
        for anti in (False, True):
            def f(e):
                return _quantization_mismatch(e, cfg, anti)
            ours = _bisect(f, lo, hi, f(lo), f(hi), xtol=1e-14, rtol=1e-12)
            assert ours == bisect(f, lo, hi, xtol=1e-14, rtol=1e-12)

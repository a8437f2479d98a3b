"""Box and split spectra, oracles, limits, wavefunctions."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from envstat.errors import EnvstatError, RegimeError
from envstat.scenarios import resolve_config, run_scenario
from envstat.szilard import (
    EngineConfig,
    SplitSpectrum,
    box_spectrum,
    fd_pair_energies,
    split_spectra,
    split_spectrum,
)
from envstat.szilard.spectrum import _fd_eigenvalues, _fd_grid, _mismatch, _pinned_mismatch
from lr_oracles import (
    bisect,
    lr_block_map,
    pair_wavefunctions,
    quantization_mismatch,
    raised,
    scalar_numeric_split,
    validate_split_spectrum,
)


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


SPLIT_CENTERS = st.one_of(st.floats(1.0, 1e6), st.sampled_from([1e20, 1e300, math.inf, math.nan]))
SPLIT_DELTAS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, 0.0, -0.0, 5e-324, 1e-20, 1.0, -1e-300, math.nan, math.inf]))


@st.composite
def split_spectrum_inputs(draw):
    n = draw(st.integers(0, 5))
    centers = draw(st.lists(SPLIT_CENTERS, min_size=n, max_size=n))
    deltas = draw(st.lists(SPLIT_DELTAS, min_size=n, max_size=n))
    odd = draw(st.integers(0, 9))
    if odd == 0:
        deltas.append(0.0)  # one too many
    elif odd == 1:
        deltas = [deltas]  # 2-d
    return centers, deltas


@settings(max_examples=400, deadline=None, derandomize=True)
@given(split_spectrum_inputs())
@example(([4.0, 16.0], [math.nan, -1.0]))  # NaN before a negative splitting
@example(([4.0, 1e20], [math.nan, 1.0]))  # NaN before a merged doublet
@example(([4.0, 16.0, 36.0], [0.0, -0.0, 0.0]))
@example(([], []))
def test_split_spectrum_validation_matches_the_sequential_checks(inputs):
    centers, deltas = inputs
    k = np.arange(1, len(centers) + 1)
    # inf - inf warns in both; warnings are not what is compared here
    with np.errstate(all="ignore"):
        expected = raised(lambda: validate_split_spectrum(k, centers, deltas))
        assert raised(lambda: SplitSpectrum(1.0, k, centers, deltas, "numeric")) == expected


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


def _lapack_sectors(cfg, n_interior, n_pairs):
    """Lowest n_pairs eigenvalues of the even and the odd sector by LAPACK
    Sturm bisection (dstebz), each with its matrix's 1-norm; the sector
    matrices are built here from the cell-averaged potential."""
    l, d, u = cfg.box_length, cfg.barrier_width, cfg.barrier_height
    dx = l / (n_interior + 1)
    x = dx * np.arange(n_interior // 2 + 1)
    overlap = np.minimum(x + dx / 2.0, d / 2.0) - np.maximum(x - dx / 2.0, -d / 2.0)
    t = cfg.hbar**2 / (2.0 * cfg.mass * dx * dx)
    diag = 2.0 * t + u * np.clip(overlap, 0.0, None) / dx
    off = np.full(diag.size - 1, -t)
    off[0] = -math.sqrt(2.0) * t  # even sector, amplitudes off the centre scaled by sqrt(2)
    out = []
    for dg, od in ((diag, off), (diag[1:], off[1:])):
        vals = eigh_tridiagonal(dg, od, select="i", select_range=(0, n_pairs - 1),
                                eigvals_only=True)
        norm1 = np.max(np.abs(dg) + np.abs(np.r_[od, 0.0]) + np.abs(np.r_[0.0, od]))
        out.append((vals, norm1))
    return out


def _assert_matches_lapack(cfg, n_interior, got, n_pairs):
    eps = np.finfo(np.float64).eps
    for sector, (ref, norm1) in enumerate(_lapack_sectors(cfg, n_interior, n_pairs)):
        # level by level in the same order, each within a few ulp * ||T||_1
        assert np.all(np.abs(got[sector::2] - ref) <= 4.0 * eps * norm1)


@pytest.mark.parametrize("n_interior", [9999, 4999])
@pytest.mark.parametrize("u", [1200.0, 4800.0, 9600.0])
@pytest.mark.parametrize("d_over_l", [0.01, 0.05])
def test_phase_solve_matches_lapack_bisection(n_interior, u, d_over_l):
    cfg = finite_barrier_config(u=u, d_over_l=d_over_l, n_trunc=32)
    _assert_matches_lapack(cfg, n_interior, _fd_eigenvalues(cfg, n_interior, 16), 16)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(u=st.floats(1200.0, 4800.0),
       d_over_l=st.floats(0.0, 0.05, exclude_min=True))
def test_phase_solve_matches_lapack_at_any_barrier(u, d_over_l):
    cfg = finite_barrier_config(u=u, d_over_l=d_over_l, n_trunc=16)
    both = _fd_eigenvalues(cfg, (9999, 4999), 5)
    assert both.shape == (2, 10)
    for n_interior, got in zip((9999, 4999), both):
        _assert_matches_lapack(cfg, n_interior, got, 5)


@pytest.mark.parametrize("d_over_l,full", [(0.003, 0), (0.01, 1), (0.02, 2)])
@pytest.mark.parametrize("u", [1200.0, 4800.0])
def test_phase_solve_with_few_full_barrier_cells(d_over_l, full, u):
    # 201 nodes put 0, 1 or 2 cells wholly under the barrier: the even
    # sector then starts from the fractional centre cell (0), and the odd
    # one from psi_0 = 0 with s_2 = (v_1 - E)/t + 1 (0 and 1)
    cfg = finite_barrier_config(u=u, d_over_l=d_over_l, n_trunc=32)
    v, m, _ = _fd_grid(cfg, 201)
    assert m == full and np.all(v[:m] == u) and 0.0 < v[m] < u
    h = _dense_grid_hamiltonian(cfg, 201)
    sectors = _fd_eigenvalues(cfg, 201, 16)
    tol = 4.0 * np.finfo(np.float64).eps * np.linalg.norm(h, 2)
    assert np.max(np.abs(np.sort(sectors) - np.linalg.eigvalsh(h)[:32])) <= tol
    assert np.all(np.diff(sectors) > 0)


def test_full_barrier_cells_are_exactly_u():
    cfg = finite_barrier_config(u=4800.0, d_over_l=0.05)
    v, m, _ = _fd_grid(cfg, 9999)
    assert m == 250 and np.all(v[:m] == 4800.0)  # cell 250 is cut by the edge node
    assert v[m] == pytest.approx(2400.0, rel=1e-12) and np.all(v[m + 1:] == 0.0)


def test_fd_levels_past_the_barrier_top_fail_closed():
    # the exact doublets 4 and 5 lie above U = 50; the FD oracle refuses
    # them rather than returning the end of its bracket
    with pytest.raises(RegimeError, match="finite-difference level 4 of the even "
                       "sector reaches past the barrier top U = 50"):
        fd_pair_energies(finite_barrier_config(u=50.0), 5)
    assert fd_pair_energies(finite_barrier_config(u=50.0), 3).shape == (6,)


@pytest.mark.parametrize("u", [1e20, 1e21])
def test_fd_levels_behind_a_wall_sit_at_their_free_well_bracket_top(u):
    # the barrier decouples the wells, so each level's wall phase at the top
    # of its free-well bracket is k pi, which rounding leaves up to 2 ulp
    # short; both sectors return that bracket top instead of failing
    levels = _fd_eigenvalues(finite_barrier_config(u=u, d_over_l=0.001), (9999, 4999), 5)
    assert np.array_equal(levels[:, 0::2], levels[:, 1::2])


def test_fd_levels_the_phase_picture_cannot_reach_fail_closed():
    cfg = finite_barrier_config(u=1e4, d_over_l=0.01)
    with pytest.raises(RegimeError, match="change sign inside the barrier edge cells"):
        _fd_eigenvalues(cfg, 21, 6)  # level 6 of 21 nodes lies near 2t
    with pytest.raises(RegimeError, match="need a finer grid than 21 nodes"):
        _fd_eigenvalues(cfg, 21, 11)
    _assert_matches_lapack(cfg, 21, _fd_eigenvalues(cfg, 21, 5), 5)


@pytest.mark.parametrize("u", [1200.0, 4800.0])
def test_numeric_roots_match_a_50_digit_solve(u):
    """The 1e-12 root claim, checked against mpmath on the same float inputs."""
    cfg = finite_barrier_config(u=u, n_trunc=32)
    split = split_spectrum(cfg, "numeric", n_pairs=16)
    with mpmath.workdps(50):
        hbar, mass = mpmath.mpf(cfg.hbar), mpmath.mpf(cfg.mass)
        w = (mpmath.mpf(cfg.box_length) - mpmath.mpf(cfg.barrier_width)) / 2
        half_d = mpmath.mpf(cfg.barrier_width) / 2
        height = mpmath.mpf(cfg.barrier_height)

        def mismatch(e, anti):
            q = mpmath.sqrt(2 * mass * e) / hbar
            kappa = mpmath.sqrt(2 * mass * (height - e)) / hbar
            edge = mpmath.coth(kappa * half_d) if anti else mpmath.tanh(kappa * half_d)
            return q * mpmath.cot(q * w) + kappa * edge

        def energy_at(qw):
            return (hbar * qw / w) ** 2 / (2 * mass)

        for k, center, delta in zip(split.k.tolist(), split.centers.tolist(),
                                    split.deltas.tolist()):
            lo, hi = energy_at((k - 1) * mpmath.pi + 1e-9), energy_at(k * mpmath.pi - 1e-12)
            for anti, got in ((False, center - delta), (True, center + delta)):
                root = mpmath.findroot(lambda e, anti=anti: mismatch(e, anti), (lo, hi),
                                       solver="anderson")
                assert lo < root < hi
                assert abs(got - root) <= 1e-12 * root


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
    from scipy.optimize import bisect as scipy_bisect

    cfg = finite_barrier_config(u=u, n_trunc=32)
    w = (cfg.box_length - cfg.barrier_width) / 2.0

    def energy_at(qw):
        return (cfg.hbar * qw / w) ** 2 / (2.0 * cfg.mass)

    for k in range(1, 17):
        lo = energy_at((k - 1) * math.pi + 1e-9)
        hi = energy_at(k * math.pi - 1e-12)
        for anti in (False, True):
            def f(e):
                return quantization_mismatch(e, cfg, anti)
            ours = bisect(f, lo, hi, f(lo), f(hi), xtol=1e-14, rtol=1e-12)
            assert ours == scipy_bisect(f, lo, hi, xtol=1e-14, rtol=1e-12)


# ---------------------------------------------------------------------------
# the batched numeric split against the scalar libm oracle
# ---------------------------------------------------------------------------

def _assert_bitwise_oracle(cfgs, n_pairs):
    """Each spectrum of one batched solve equals the scalar solve's bit for
    bit, and a config the scalar solve rejects raises the same error."""
    spectra = split_spectra(cfgs, n_pairs)
    for i, cfg in enumerate(cfgs):
        try:
            centers, deltas, excluded = scalar_numeric_split(cfg, n_pairs)
        except EnvstatError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                next(spectra)
            spectra = split_spectra(cfgs[i + 1:], n_pairs)
            continue
        split = next(spectra)
        assert np.array_equal(split.centers, centers)
        assert np.array_equal(split.deltas, deltas)
        assert split.excluded == excluded


_barrier_configs = st.builds(
    lambda log_u, d_over_l: finite_barrier_config(u=math.exp(log_u), d_over_l=d_over_l,
                                                  n_trunc=80),
    st.floats(math.log(50.0), math.log(1e6)),
    st.floats(0.0, 0.05, exclude_min=True))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfgs=st.one_of(st.lists(_barrier_configs, min_size=1, max_size=1),
                      st.lists(_barrier_configs, min_size=5, max_size=5)),
       n_pairs=st.integers(1, 40))
def test_batched_split_is_bitwise_the_scalar_libm_solve(cfgs, n_pairs):
    _assert_bitwise_oracle(cfgs, n_pairs)


def _nudged(fn, ulps):
    def nudged(x):
        return (fn(x).view(np.int64) + ulps).view(np.float64)
    return nudged


_NUDGED_CFGS = [finite_barrier_config(u=u, d_over_l=d, n_trunc=80)
                for u, d in ((1200.0, 0.05), (4800.0, 0.01), (3e4, 0.003), (2e5, 0.03),
                             (1200.0, 1e-12), (7071.067811865475, 1e-4))]


@pytest.mark.parametrize("ulps", [4, -4])
def test_split_roots_do_not_depend_on_the_last_bits_of_simd_tan_and_tanh(
        monkeypatch, ulps):
    # numpy's tan and tanh part from libm by up to 1 and 3 ulp on x86-64
    # with AVX-512; pushed 4 ulp away, every sign the bisection reads must
    # still be libm's
    monkeypatch.setattr(np, "tan", _nudged(np.tan, ulps))
    monkeypatch.setattr(np, "tanh", _nudged(np.tanh, ulps))
    _assert_bitwise_oracle(_NUDGED_CFGS, 40)


@pytest.mark.parametrize("ulps", [4, -4])
def test_mismatch_signs_next_to_each_root_are_libm_signs(monkeypatch, ulps):
    """Next to a root the nudged SIMD mismatch can take the wrong sign (at
    U 7071, d/L 1e-4 the float nearest doublet 1's symmetric root has
    |f| = 0.45 eps of its terms' size), and the libm re-evaluation puts
    every sign back.  Nudging tan and tanh the same way moves both terms of
    the mismatch the same way, so the nudges do not cancel."""
    monkeypatch.setattr(np, "tan", _nudged(np.tan, ulps))
    monkeypatch.setattr(np, "tanh", _nudged(np.tanh, ulps))
    wrong = 0
    for cfg, k in itertools.product(_NUDGED_CFGS, (1, 2, 5)):
        w = (cfg.box_length - cfg.barrier_width) / 2.0
        lo = (cfg.hbar * ((k - 1) * math.pi + 1e-9) / w) ** 2 / (2.0 * cfg.mass)
        hi = (cfg.hbar * (k * math.pi - 1e-12) / w) ** 2 / (2.0 * cfg.mass)
        for anti in (False, True):
            def f(e, anti=anti):
                return quantization_mismatch(e, cfg, anti)
            a, b = lo, hi  # bisect f's sign change down to adjacent floats
            while (mid := 0.5 * (a + b)) not in (a, b):
                a, b = (mid, b) if (f(mid) > 0) == (f(a) > 0) else (a, mid)
            e = a + np.arange(-64, 65) * np.spacing(a)
            p = tuple(np.full(e.size, v) for v in (
                2.0 * cfg.mass, cfg.hbar, cfg.barrier_height, cfg.barrier_width / 2.0, w,
                anti))
            libm = np.sign([f(x) for x in e.tolist()])
            assert np.array_equal(np.sign(_pinned_mismatch(e, p)), libm)
            wrong += np.count_nonzero(np.sign(_mismatch(e, p, np.tan, np.tanh)[0]) != libm)
    assert wrong > 0


def test_split_spectra_raise_each_error_at_its_turn():
    ok, bare = finite_barrier_config(), finite_barrier_config(u=math.inf)
    spectra = split_spectra([ok, bare, ok], n_pairs=3)
    assert np.array_equal(next(spectra).centers, scalar_numeric_split(ok, 3)[0])
    with pytest.raises(RegimeError, match="numeric mode needs a finite barrier"):
        next(spectra)


@pytest.mark.parametrize("case,first_line", [
    ({"engine": {"barrier_height": 1e8, "barrier_width": 3e-5, "n_trunc": 3000},
      "params": {"n_pairs": 1500}},
     "finite-difference levels this high change sign inside the barrier edge cells; "
     "the grid is too coarse"),
    ({"engine": {"barrier_height": 2e6}},
     "doublet 1 splitting 4.72e-97 is below the float resolution of its center 4.43213"),
    ({"engine": {"barrier_height": math.inf}},
     "numeric mode needs a finite barrier; use formula mode"),
    ({"engine": {"barrier_height": 300.0}, "params": {"n_pairs": 16}},
     "doublets 9..16 of the 16 requested reach past the barrier top U = 300; "
     "lower n_pairs or raise U"),
])
def test_spectrum_split_errors_keep_their_step_order(case, first_line):
    cfg = resolve_config({"scenario": "spectrum-split", **case})
    with pytest.raises(RegimeError) as err:
        run_scenario(cfg)
    assert str(err.value).splitlines()[0] == first_line

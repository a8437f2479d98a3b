"""Named experiment scenarios behind the CLI.

Each scenario resolves its configuration (file plus flag overrides, with
per-scenario defaults), runs deterministically from the configured seeds,
and returns a RunReport whose resolved config is embedded, so any report
can be re-run from its own config block and reproduce itself.  The
embedded block echoes the package's fixed tolerances; a config may restate
them but not change them.  resolve_config raises ConfigError on malformed
input before anything runs: sections must be JSON objects, and every param
has an upper bound.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, envariance as env, equilibrium as eq, hilbert as hb, tolerances as tol
from .errors import ConfigError, RegimeError
from .report import DataTable, RunReport
from .szilard import (
    BoxSpectrum,
    EngineConfig,
    box_spectrum,
    classical_ensemble_cycle,
    fd_pair_energies,
    free_energy_ledger,
    split_spectra,
    split_spectrum,
    thermal_state,
    z_boltzmann_gas,
)

__all__ = ["SCENARIOS", "ScenarioConfig", "config_section", "resolve_config",
           "run_scenario"]

DEFAULT_SEED = 12345

_ENGINE_KEYS = ("mass", "box_length", "barrier_width", "barrier_height",
                "temperature", "hbar", "kb", "n_trunc")
# a config may restate the fixed tolerances, so every report reruns from its
# echoed config, but never change them
_TOLERANCES = {"construction": tol.CONSTRUCTION, "decomposition": tol.DECOMPOSITION,
               "physics": tol.PHYSICS, "evenness": tol.EVENNESS}

# engine defaults per scenario; spectrum-split needs a finite barrier
_ENGINE_DEFAULTS = {
    "spectrum-split": dict(mass=0.5, box_length=math.pi,
                           barrier_width=0.05 * math.pi, barrier_height=1200.0,
                           temperature=1.0, hbar=1.0, kb=1.0, n_trunc=12),
    "default": dict(mass=0.5, box_length=math.pi,
                    barrier_width=0.01 * math.pi, barrier_height=math.inf,
                    temperature=1000.0, hbar=1.0, kb=1.0, n_trunc=None),
}

_PARAM_DEFAULTS = {
    "envariance-check": {"rank": 4},
    "born-finegrain": {"mu": 3, "nu": 5},
    "theorem-sweep": {"max_rank": 8, "n_unitaries": 100},
    "canonical-count": {},
    "spectrum-split": {"n_pairs": 5},
    "quantum-cycle": {},
    "classical-cycle": {"samples": 100_000},
}

# largest value of each param: every run stays desk scale in time and memory
_PARAM_MAX = {
    "rank": 1024,                # dense rank x rank unitaries, 16 MiB each
    "mu": env.MAX_BRANCHES - 1,  # with nu >= 1, mu + nu must fit the branch budget
    "nu": env.MAX_BRANCHES - 1,  # likewise, with mu >= 1
    "max_rank": 64,              # every rank up to it is swept, n_unitaries times
    "n_unitaries": 1000,         # Haar draws per rank, at most 64 000 in a sweep
    "n_pairs": 2048,             # two levels per doublet fill the 4096-level budget
    "samples": 10_000_000,       # one float per sample, 80 MB at the bound
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seeds: tuple[int, ...]
    engine: EngineConfig
    params: dict
    output_path: str | None
    output_format: str

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "engine": {k: getattr(self.engine, k) for k in _ENGINE_KEYS},
            "tolerances": dict(_TOLERANCES),
            "params": dict(sorted(self.params.items())),
            "output": {"path": self.output_path, "format": self.output_format},
        }


def _reject_unknown(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {section} field(s): {', '.join(sorted(unknown))}")


def config_section(raw: dict, name: str) -> dict:
    """A copy of the optional section `name` of a raw config."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(
            f"config section {name} must be a JSON object, not {type(section).__name__}")
    return dict(section)


def resolve_config(raw: dict) -> ScenarioConfig:
    """Fill defaults, validate every field, reject unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown("config", raw,
                    ("scenario", "seeds", "engine", "tolerances", "params", "output"))
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {', '.join(sorted(SCENARIOS))}; got {scenario!r}")

    seeds = raw.get("seeds", [DEFAULT_SEED])
    if (not isinstance(seeds, (list, tuple)) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                       for s in seeds)):
        raise ConfigError("seeds must be a nonempty list of non-negative integers")

    engine_raw = config_section(raw, "engine")
    _reject_unknown("engine", engine_raw, _ENGINE_KEYS)
    engine_fields = dict(_ENGINE_DEFAULTS.get(scenario, _ENGINE_DEFAULTS["default"]))
    engine_fields.update(engine_raw)
    if isinstance(engine_fields["barrier_height"], str):
        if engine_fields["barrier_height"].lower() not in ("inf", "infinity"):
            raise ConfigError("barrier_height must be a number or \"inf\"")
        engine_fields["barrier_height"] = math.inf
    try:
        engine = EngineConfig(**engine_fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid engine config: {exc}") from exc

    tol_raw = config_section(raw, "tolerances")
    _reject_unknown("tolerances", tol_raw, _TOLERANCES)
    for key, value in tol_raw.items():
        if value != _TOLERANCES[key]:
            raise ConfigError(
                f"tolerance {key} is fixed at {_TOLERANCES[key]:g}; got {value!r}")

    params_raw = config_section(raw, "params")
    if scenario == "full-suite":
        allowed = {k for d in _PARAM_DEFAULTS.values() for k in d}
        params = {k: v for d in _PARAM_DEFAULTS.values() for k, v in d.items()}
    else:
        allowed = set(_PARAM_DEFAULTS[scenario])
        params = dict(_PARAM_DEFAULTS[scenario])
    _reject_unknown("params", params_raw, allowed)
    params.update(params_raw)
    for key, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(f"param {key} must be a positive integer")
        if value > _PARAM_MAX[key]:
            raise ConfigError(f"param {key} must be at most {_PARAM_MAX[key]}; got {value}")

    output_raw = config_section(raw, "output")
    _reject_unknown("output", output_raw, ("path", "format"))
    path = output_raw.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output path must be a string or null, not {type(path).__name__}")
    fmt = output_raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"output format must be json or csv, got {fmt!r}")

    return ScenarioConfig(
        scenario=scenario,
        seeds=tuple(seeds),
        engine=engine,
        params=params,
        output_path=path,
        output_format=fmt,
    )


def _units_system(engine: EngineConfig) -> str:
    if engine.hbar == 1.0 and engine.kb == 1.0 and engine.mass == 0.5:
        return "natural (hbar=kB=1, m=1/2)"
    return "caller-supplied (hbar, kB, m as configured)"


def _new_report(cfg: ScenarioConfig, scenario: str | None = None) -> RunReport:
    rep = RunReport(
        scenario=scenario or cfg.scenario,
        config=cfg.to_dict(),
        version=__version__,
    )
    rep.data["units_system"] = _units_system(cfg.engine)
    return rep


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def run_envariance_check(cfg: ScenarioConfig) -> RunReport:
    """Phase and swap envariance on seeded even and uneven states."""
    rep = _new_report(cfg, "envariance-check")
    rank = cfg.params["rank"]
    rng = np.random.default_rng([cfg.seeds[0], 1])

    even = eq.make_even_state(rank, phases=rng.uniform(0, 2 * math.pi, rank), rng=rng)
    form = hb.schmidt(even.state)
    shift = env.PhaseShift(phases=tuple(rng.uniform(0, 2 * math.pi, form.rank)),
                           basis=tuple(form.sys_basis))
    u_shift = shift.to_unitary()
    u_counter = env.countershift_for(even.state, shift, form)
    shifted = hb.apply_local(even.state, u_shift, "S")
    restored = hb.apply_local(shifted, u_counter, "E")
    rep.check_le("phase_countershift_restoration_distance",
                 restored.distance(even.state), tol.DECOMPOSITION,
                 "definition", "state norm")
    rep.check_le("phase_shift_reduced_state_distance",
                 hb.partial_trace_env(shifted).distance(hb.partial_trace_env(even.state)),
                 tol.DECOMPOSITION, "definition", "Frobenius")

    swap = env.SwapSpec(pairs=((0, rank - 1),)) if rank > 1 else env.SwapSpec(pairs=())
    if rank > 1:
        u_swap = env.swap_unitary(form, swap, even.dim_sys)
        u_cswap = env.counterswap_for(even.state, swap, form)
        back = hb.apply_local(hb.apply_local(even.state, u_swap, "S"), u_cswap, "E")
        rep.check_le("swap_counterswap_restoration_distance",
                     back.distance(even.state), tol.DECOMPOSITION,
                     "definition", "state norm")
        rep.check_true("even_pair_certificate",
                       env.equal_probability_certificate(even.state, 0, rank - 1, form),
                       "definition")

    uneven = hb.BipartitePureState(
        np.diag([math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)]).astype(complex))
    rep.check_true("uneven_pair_certificate_rejected",
                   not env.equal_probability_certificate(uneven, 0, 1),
                   "definition")
    rep.data["rank"] = rank
    return rep


def run_born_finegrain(cfg: ScenarioConfig) -> RunReport:
    """Branch counting: p_up = mu/(mu+nu) exactly, certified pair by pair."""
    rep = _new_report(cfg, "born-finegrain")
    mu, nu = cfg.params["mu"], cfg.params["nu"]
    result = env.finegrain_born_rule(env.FinegrainSpec(mu, nu))

    coarse_up, coarse_down = env.coarse_probabilities(result)
    alpha_sq = float(np.abs(result.coarse_state.amps[0, 0]) ** 2)
    rep.check_close("p_up_matches_coarse_amplitude_squared",
                    float(result.p_up), alpha_sq, 1e-12, "exact-count", "probability")
    rep.check_close("finegrained_block_weight_up",
                    coarse_up, float(result.p_up), 1e-12, "exact-count", "probability")
    rep.check_close("finegrained_block_weight_down",
                    coarse_down, float(result.p_down), 1e-12, "exact-count", "probability")
    rep.check_true("all_branch_pairs_certified",
                   env.all_pairs_certified(result.form), "definition")

    rep.data.update({
        "mu": mu,
        "nu": nu,
        "p_up": str(result.p_up),
        "p_down": str(result.p_down),
        "p_up_numerator": result.p_up.numerator,
        "p_up_denominator": result.p_up.denominator,
        "branch_count": result.branch_count,
    })
    return rep


def run_theorem_sweep(cfg: ScenarioConfig) -> RunReport:
    """Counter-evolution restores even states for every sampled unitary."""
    rep = _new_report(cfg, "theorem-sweep")
    max_rank = cfg.params["max_rank"]
    n_unitaries = cfg.params["n_unitaries"]
    seed = cfg.seeds[0]

    restoration: dict[str, list[float]] = {}
    reduced: dict[str, list[float]] = {}
    worst_restore = 0.0
    worst_reduced = 0.0
    for rank in range(1, max_rank + 1):
        r_dists, q_dists = eq.no_evolution_sweep(
            rank, (np.random.default_rng([seed, rank, trial]) for trial in range(n_unitaries)))
        restoration[str(rank)] = r_dists
        reduced[str(rank)] = q_dists
        worst_restore = max(worst_restore, max(r_dists))
        worst_reduced = max(worst_reduced, max(q_dists))

    rep.check_le("max_restoration_distance", worst_restore, tol.DECOMPOSITION,
                 "definition", "state norm")
    rep.check_le("max_reduced_state_distance", worst_reduced, tol.DECOMPOSITION,
                 "definition", "Frobenius")

    # negative control: an uneven state is moved by generic unitaries
    uneven = hb.BipartitePureState(
        np.diag([math.sqrt(0.3), math.sqrt(0.7)]).astype(complex))
    shifts = eq.reduced_shifts(
        uneven, (np.random.default_rng([seed, 999, trial]) for trial in range(n_unitaries)))
    fraction = int(np.count_nonzero(shifts > 1e-3)) / n_unitaries
    rep.add("uneven_control_moved_fraction", fraction, 0.95, None,
            fraction >= 0.95, "definition", "fraction")

    rep.data.update({
        "restoration_distances": restoration,
        "reduced_distances": reduced,
        "uneven_moved_fraction": fraction,
    })
    return rep


def run_canonical_count(cfg: ScenarioConfig) -> RunReport:
    """Boltzmann weights from shell counting, with closed-form and
    brute-force enumeration oracles."""
    rep = _new_report(cfg, "canonical-count")

    # exponentially growing bath degeneracy makes the counting answer e^{-E}
    growth = 1.0
    bath = eq.LevelLadder(
        tuple(float(j) for j in range(30)),
        tuple(round(math.exp(growth * j)) for j in range(30)))
    system = eq.LevelLadder((0.0, 1.0), (1, 1))
    fit = eq.canonical_by_counting(system, bath, total_energy=25.0)
    rep.check_close("fitted_beta", fit.beta, growth, 0.05 * growth,
                    "closed-form", "1/energy")
    rep.add("fit_r_squared", fit.r_squared, 0.99, None,
            fit.r_squared > 0.99, "closed-form", "dimensionless")

    # equal-spacing bath small enough to enumerate every joint microstate
    bath2 = eq.LevelLadder(tuple(0.5 * j for j in range(40)), tuple([3] * 40))
    system2 = eq.LevelLadder((0.0, 0.5, 1.0), (1, 2, 1))
    fit2 = eq.canonical_by_counting(system2, bath2, total_energy=9.0)
    bath_states = bath2.expand()
    brute = np.array([
        g * int(np.sum(np.abs(ek + bath_states - 9.0) <= fit2.window))
        for ek, g in zip(system2.energies, system2.degeneracies)], dtype=float)
    brute /= brute.sum()
    rep.check_close("brute_force_enumeration_max_difference",
                    float(np.max(np.abs(fit2.occupancies - brute))), 0.0, 0.0,
                    "independent-oracle", "probability")

    rep.data.update({
        "exponential_bath": {
            "beta": fit.beta,
            "r_squared": fit.r_squared,
            "occupancies": fit.occupancies.tolist(),
            "window": fit.window,
            "window_sensitivity": fit.window_sensitivity,
        },
        "enumerated_bath": {
            "occupancies": fit2.occupancies.tolist(),
            "brute_force": brute.tolist(),
            "window": fit2.window,
        },
    })
    return rep


def run_spectrum_split(cfg: ScenarioConfig) -> RunReport:
    """Doublet spectrum: exact solve, grid oracle, limits, and the
    closed-form estimate side by side."""
    rep = _new_report(cfg, "spectrum-split")
    engine = cfg.engine
    n_pairs = cfg.params["n_pairs"]

    u = engine.barrier_height
    # the spectra at U, with a 1e-12 L barrier, and at 2U, 4U and 8U are
    # solved together; each one's errors surface where its step comes
    spectra = split_spectra(
        [engine, replace(engine, barrier_width=1e-12 * engine.box_length)]
        + [replace(engine, barrier_height=u * factor) for factor in (2.0, 4.0, 8.0)],
        n_pairs)
    numeric = next(spectra)
    formula = split_spectrum(engine, "formula", n_pairs=n_pairs)
    excluded = sorted(set(numeric.excluded) | set(formula.excluded))
    if excluded:
        raise RegimeError(
            f"doublets {excluded[0]}..{excluded[-1]} of the {n_pairs} requested reach "
            f"past the barrier top U = {u:g}; lower n_pairs or raise U")
    fd = fd_pair_energies(engine, numeric.count)

    exact = numeric.energies
    fd_rel = float(np.max(np.abs(fd - exact) / exact))
    rep.check_le("fd_oracle_max_relative_difference", fd_rel, 1e-6,
                 "independent-oracle", "relative")

    # removing the barrier must reproduce the bare box; the width must be
    # small enough that the first-order shift U d |psi(0)|^2 is negligible
    thin_e = next(spectra).energies
    box_e = BoxSpectrum(engine.epsilon, thin_e.size).energies
    rep.check_le("vanishing_barrier_max_relative_difference",
                 float(np.max(np.abs(thin_e - box_e) / box_e)), 1e-6,
                 "closed-form", "relative")

    # splitting dies away monotonically as the barrier grows; a doublet whose
    # splitting is below the solver's resolution at both heights (0 then 0)
    # has nothing left to decrease
    deltas_by_u = [numeric.deltas] + [split.deltas for split in spectra]
    monotone = all(
        np.all((higher < lower) | ((higher == 0.0) & (lower == 0.0)))
        for lower, higher in itertools.pairwise(deltas_by_u))
    rep.check_true("splitting_monotone_decreasing_in_barrier_height", monotone,
                   "definition")
    rep.check_true("doublets_narrow_against_centers", not numeric.wide, "definition")

    # a splitting of 0 at U leaves the formula nothing to be compared with
    closed = np.flatnonzero(numeric.deltas == 0.0)
    if closed.size:
        raise RegimeError(
            f"doublet {numeric.k[closed[0]]} splitting at U = {u:g} is 0, below the "
            "1e-12 relative resolution of its roots; lower U or d")
    rows = tuple(
        (k, center, d_formula, d_numeric, d_formula / d_numeric)
        for k, center, d_formula, d_numeric in zip(
            numeric.k.tolist(), numeric.centers.tolist(),
            formula.deltas.tolist(), numeric.deltas.tolist()))
    rep.table = DataTable(
        columns=("k", "E_k", "Delta_formula", "Delta_numeric", "ratio"),
        rows=rows)
    rep.data.update({
        "epsilon_prime": numeric.epsilon_prime,
        "fd_energies": fd.tolist(),
        "numeric_energies": exact.tolist(),
        "barrier_heights_swept": [u * f for f in (1, 2, 4, 8)],
    })
    return rep


HIGH_T_EPS_BETA = 0.01  # closed-form cycle relations are only claimed below this
_Z_SWEEP_EPS_BETA = (1e-1, 1e-2, 1e-3, 1e-4)


def _gas_law_insertion_shift(engine: EngineConfig) -> float:
    """Boltzmann-gas free-energy shift of barrier insertion, kT ln(L/(L-d)).

    This is the volume effect alone.  The ledger's exact-sum shift also
    carries the spectrum-discreteness offset ~ lambda_dB/(2L), which decays
    with eps*beta.
    """
    dl = engine.barrier_width / engine.box_length
    return engine.kb * engine.temperature * math.log(1.0 / (1.0 - dl))


@functools.cache
def _z_error_sweep() -> tuple[float, ...]:
    """Relative error of the Boltzmann-gas Z against the direct sum at
    eps*beta 1e-1..1e-4.  It reads no config, so a process computes it once."""
    sweep = []
    for eb in _Z_SWEEP_EPS_BETA:
        sweep_cfg = EngineConfig.natural(eps_beta=eb)
        _, z = thermal_state(box_spectrum(sweep_cfg), sweep_cfg.temperature)
        sweep.append(abs(z - z_boltzmann_gas(eb)) / z)
    return tuple(sweep)


def run_quantum_cycle(cfg: ScenarioConfig) -> RunReport:
    """Full quantum engine cycle with the free-energy ledger checks."""
    rep = _new_report(cfg, "quantum-cycle")
    engine = cfg.engine
    kt = engine.kb * engine.temperature
    ledger = free_energy_ledger(engine)
    start, insert, measure, expand, erase = ledger.entries
    insertion_delta_a = insert.free_energy - start.free_energy
    measurement_delta_a = measure.free_energy - insert.free_energy
    entropy_drop = insert.entropy - measure.entropy
    net_extracted_work = -(insert.work_on + measure.work_on + expand.work_on)
    net_with_erasure = -(insert.work_on + measure.work_on + expand.work_on
                         + erase.work_on)
    dl = engine.barrier_width / engine.box_length

    # the closed forms below are only claimed in the high-temperature regime
    rep.check_true("high_temperature_regime", engine.eps_beta <= HIGH_T_EPS_BETA,
                   "definition")
    rep.check_le("insertion_delta_a_closed_form_over_kt",
                 _gas_law_insertion_shift(engine) / kt, 1.1 * kt * dl / kt,
                 "closed-form", "kT")
    rep.check_close("measurement_delta_a_over_kt",
                    measurement_delta_a / kt, math.log(2.0),
                    0.02 * math.log(2.0), "closed-form", "kT")
    rep.check_close("measurement_entropy_drop", entropy_drop,
                    math.log(2.0), 1e-6, "closed-form", "nats")
    rep.check_close("p_left", ledger.p_left, 0.5, 1e-10, "definition", "probability")
    rep.check_close("p_right", ledger.p_right, 0.5, 1e-10, "definition", "probability")
    rep.check_close("probabilities_sum", ledger.p_left + ledger.p_right, 1.0,
                    1e-10, "definition", "probability")
    rep.check_close("measurement_repeatability", ledger.repeat_left_prob, 1.0,
                    1e-10, "definition", "probability")
    rep.check_close("net_cycle_work_with_erasure_over_kt",
                    net_with_erasure / kt, 0.0, 1e-12, "closed-form", "kT")
    residual = 0.0
    for prev, entry in zip(ledger.entries, ledger.entries[1:]):
        residual = max(residual, abs(entry.first_law_residual(prev)) / kt)
    rep.check_le("max_first_law_residual_over_kt", residual, 1e-8,
                 "definition", "kT")
    rep.check_true(
        "delta_a_arises_at_measurement_not_insertion",
        measurement_delta_a > 10.0 * abs(insertion_delta_a),
        "definition")

    # partition-sum asymptotics: the Boltzmann-gas closed form takes over at
    # high temperature, and its relative error shrinks monotonically
    z_exact = ledger.z_box
    z_gas = z_boltzmann_gas(engine.eps_beta)
    rep.check_le("partition_sum_vs_boltzmann_gas_relative_error",
                 abs(z_exact - z_gas) / z_exact, 0.03, "closed-form", "relative")
    sweep = list(_z_error_sweep())
    rep.check_true("boltzmann_gas_error_monotone_decreasing",
                   all(b < a for a, b in zip(sweep, sweep[1:])), "definition")

    rep.data.update({
        "z_exact": z_exact,
        "z_boltzmann_gas": z_gas,
        "z_error_sweep_eps_beta": list(_Z_SWEEP_EPS_BETA),
        "z_error_sweep": sweep,
        "kt": kt,
        "entries": [
            {"step": e.step, "free_energy": e.free_energy, "entropy": e.entropy,
             "internal_energy": e.internal_energy, "work_on": e.work_on,
             "heat_in": e.heat_in}
            for e in ledger.entries],
        "insertion_delta_a_exact_over_kt": insertion_delta_a / kt,
        "net_extracted_work_over_kt": net_extracted_work / kt,
    })
    return rep


def run_classical_cycle(cfg: ScenarioConfig) -> RunReport:
    """Classical comparator: sampled Szilard cycles plus the per-sample ledger.

    The partition halves a classical molecule's volume with no work, so
    insertion raises A by kT ln 2 against the gas law; measurement only
    reveals the side, expansion extracts kT ln 2 and erasure pays it back.
    """
    rep = _new_report(cfg, "classical-cycle")
    engine = cfg.engine
    kt = engine.kb * engine.temperature
    result = classical_ensemble_cycle(engine, cfg.params["samples"], cfg.seeds[0])
    jump = kt * math.log(2.0)
    quantum_shift = _gas_law_insertion_shift(engine)

    rep.check_close("left_fraction", result.left_fraction, 0.5, 0.005,
                    "definition", "fraction")
    rep.check_true("insertion_contrast_classical_vs_quantum",
                   jump > 10.0 * abs(quantum_shift), "definition")

    rep.data.update({
        "samples": result.samples,
        "seed": result.seed,
        "left_count": result.left_count,
        "left_fraction": result.left_fraction,
        "per_sample": {
            "insertion_delta_a": jump,
            "measurement_delta_a": 0.0,
            "expansion_work_extracted": jump,
            "erasure_cost": jump,
            "net_work_extracted": 0.0,
        },
        "classical_insertion_delta_a_over_kt": jump / kt,
        "quantum_insertion_delta_a_over_kt": quantum_shift / kt,
    })
    return rep


def run_full_suite(cfg: ScenarioConfig) -> RunReport:
    """Every scenario back to back, with per-scenario default engines."""
    rep = _new_report(cfg, "full-suite")
    for name in ("envariance-check", "born-finegrain", "theorem-sweep",
                 "canonical-count", "spectrum-split", "quantum-cycle",
                 "classical-cycle"):
        sub_raw = {
            "scenario": name,
            "seeds": list(cfg.seeds),
            "params": {k: v for k, v in cfg.params.items()
                       if k in _PARAM_DEFAULTS[name]},
        }
        sub_cfg = resolve_config(sub_raw)
        rep.merge(SCENARIOS[name](sub_cfg), name)
    return rep


SCENARIOS = {
    "envariance-check": run_envariance_check,
    "born-finegrain": run_born_finegrain,
    "theorem-sweep": run_theorem_sweep,
    "canonical-count": run_canonical_count,
    "spectrum-split": run_spectrum_split,
    "quantum-cycle": run_quantum_cycle,
    "classical-cycle": run_classical_cycle,
    "full-suite": run_full_suite,
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    start = time.perf_counter()
    report = SCENARIOS[cfg.scenario](cfg)
    report.wall_time_s = time.perf_counter() - start
    return report

"""Seeded workloads for the envstat benchmark.

A workload is an endless stream of *decks*.  A deck is a short list of ops
whose kinds and size strata are fixed per workload (so every deck costs
about the same), in an order and with continuous inputs drawn from the seed.

``engine-cycle`` repeats a few temperatures, so its inputs recur.
``spectrum-envariance`` never repeats an input.  Its decks hold the
spectrum-split and bath-counting ops plus one set of the envariance ops,
which take about a sixth of a deck's time: on its own, a workload of those
pure-Python millisecond ops spread past any allowed bound from run to run,
because the host runs pure-Python code at one of two speeds about 1.7x
apart, switching every few seconds.  Sizes are continuous where the median
or the tail latency of a run falls (``incommensurate_bound`` and
``canonical_by_counting``), so those order statistics sit in a continuum of
op costs rather than inside one cluster of equal ops, where they would jump
from one host speed to the other when the share of time spent at each
crosses their quantile.  Inputs that span a range come from a seeded
rotation of a Kronecker (R_d) low-discrepancy sequence, stratified within a
deck where a deck holds several ops of a kind, so any prefix of a run covers
its ranges evenly: two seeds give different inputs but the same op mix,
which is what keeps medians steady across seeds.

Each op kind has three steps: ``prepare`` turns the op's recorded inputs into
call arguments (untimed), ``run`` is the timed call into the public API, and
``check(op, args, output)`` verifies the output against a reference that
does not share the program's code path (untimed) and returns a list of
failure strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from envstat import envariance, equilibrium, report, scenarios
from envstat.szilard import EngineConfig

WORKLOADS = ("engine-cycle", "spectrum-envariance")

# engine-cycle: eps*beta in natural units (eps = 1), i.e. T = 1/eps_beta.
# Weights 2:2:1:2 put the median inside the n_trunc = 400 cluster and the
# tail (the 11th-largest op) inside the 896 one for the 6-11 decks a 50 s
# run holds.  One 896 op per deck would put the tail on the 566/896 edge at
# 10-11 decks, where it jumps by 1.4x from run to run.
ENGINE_EPS_BETA = (1e-3,) * 2 + (5e-4,) * 2 + (2.5e-4,) + (1e-4,) * 2
# spectrum-envariance: envariance ops
TS_MAX_RANK = (4, 16)
TS_UNITARIES = (20, 50)
EC_RANK = (2, 64)
BF_TOTAL = (2, 512)
IB_MAX_DEN = (1000, 10000)  # log-uniform, stratified three per deck
IB_PER_DECK = 3
IB_TARGET = (0.01, 0.99)
# spectrum-envariance: spectrum and bath-counting ops
SS_BARRIER = (1200.0, 4800.0)
SS_PAIRS = tuple(range(5, 17))
CC_LEVELS = (10_000, 1_000_000)  # log-uniform, stratified five per deck
CC_PER_DECK = 5
CC_GROWTH = (0.5, 2.0)
CC_LOG_DEG_MAX = 40.0  # top bath degeneracy e^40 stays inside int64
CC_ENUM_SPACING = 0.5


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    inputs is a tuple of (name, value) pairs that fully determines the op,
    so equal inputs mean a repeated op; size is the quantity the layer
    scaling exponent is fitted against.
    """

    kind: str
    inputs: tuple
    size: float

    def arg(self, name):
        return dict(self.inputs)[name]


@dataclass(frozen=True)
class OpKind:
    prepare: Callable[[Op], object]
    run: Callable[[object], object]
    check: Callable[[Op, object, object], list]


class Kronecker:
    """R_d sequence x_n = frac(x_0 + n * alpha) with a seeded start x_0."""

    def __init__(self, rng: np.random.Generator, dim: int):
        phi = 2.0
        for _ in range(64):  # phi_d is the positive root of x^(d+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        self._alpha = np.array([phi ** -(j + 1) for j in range(dim)])
        self._x = rng.random(dim)

    def next(self) -> tuple[float, ...]:
        self._x = (self._x + self._alpha) % 1.0
        return tuple(float(v) for v in self._x)


def _pick_int(u: float, lo: int, hi: int) -> int:
    return min(lo + int(u * (hi - lo + 1)), hi)


def _log_stratum(u: float, i: int, strata: int, lo: int, hi: int) -> int:
    """Integer in the i-th of `strata` equal log-width slices of [lo, hi]."""
    share = (i + u) / strata
    return min(round(lo * (hi / lo) ** share), hi)


def _seed31(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# deck streams
# ---------------------------------------------------------------------------

def decks(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless, seed-determined stream of decks for one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "engine-cycle":
        yield from _engine_decks(rng)
    elif workload == "spectrum-envariance":
        for envariance_ops, spectrum_ops in zip(_envariance_ops(rng), _spectrum_ops(rng)):
            yield _shuffled(rng, envariance_ops + spectrum_ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def _engine_decks(rng):
    sizes = {eb: EngineConfig.natural(eps_beta=eb).n_trunc for eb in set(ENGINE_EPS_BETA)}
    while True:
        yield _shuffled(rng, [
            Op("quantum-cycle", (("eps_beta", eb),), sizes[eb])
            for eb in ENGINE_EPS_BETA])


def _envariance_ops(rng):
    ts_seq, ec_seq, bf_seq, ib_seq = (Kronecker(rng, d) for d in (2, 1, 2, 2))
    while True:
        u_rank, u_count = ts_seq.next()
        ops = [Op("theorem-sweep", (("max_rank", _pick_int(u_rank, *TS_MAX_RANK)),
                                    ("n_unitaries", _pick_int(u_count, *TS_UNITARIES)),
                                    ("seed", _seed31(rng))), 0.0)]
        for _ in range(3):
            ops.append(Op("envariance-check",
                          (("rank", _pick_int(ec_seq.next()[0], *EC_RANK)),
                           ("seed", _seed31(rng))), 0.0))
        for _ in range(2):
            u_total, u_mu = bf_seq.next()
            total = _pick_int(u_total, *BF_TOTAL)
            mu = _pick_int(u_mu, 1, total - 1)
            ops.append(Op("born-finegrain", (("mu", mu), ("nu", total - mu)), 0.0))
        for i in range(IB_PER_DECK):
            u_target, u_den = ib_seq.next()
            lo, hi = IB_TARGET
            target = lo + (hi - lo) * u_target
            max_den = _log_stratum(u_den, i, IB_PER_DECK, *IB_MAX_DEN)
            ops.append(Op("incommensurate-bound",
                          (("target", target), ("max_den", max_den)), float(max_den)))
        yield ops


def _spectrum_ops(rng):
    u_seq, ladder_seq = Kronecker(rng, 1), Kronecker(rng, 2)
    while True:
        ops = []
        for n_pairs in SS_PAIRS:
            lo, hi = SS_BARRIER
            u = lo + (hi - lo) * u_seq.next()[0]
            ops.append(Op("spectrum-split",
                          (("barrier_height", u), ("n_pairs", n_pairs)), float(n_pairs)))
        for i in range(CC_PER_DECK):
            u_levels, u_growth = ladder_seq.next()
            levels = _log_stratum(u_levels, i, CC_PER_DECK, *CC_LEVELS)
            lo, hi = CC_GROWTH
            growth = lo + (hi - lo) * u_growth
            for exponential in (True, False):
                ops.append(Op("canonical-by-counting",
                              (("levels", levels), ("exponential", exponential),
                               ("growth", growth if exponential else 0.0),
                               ("seed", _seed31(rng))), float(levels)))
        yield ops


# ---------------------------------------------------------------------------
# scenario ops: resolve_config -> run_scenario -> render_json
# ---------------------------------------------------------------------------

def _scenario_raw(op: Op) -> dict:
    if op.kind == "quantum-cycle":
        return {"scenario": op.kind,
                "engine": {"temperature": 1.0 / op.arg("eps_beta")}}
    if op.kind == "theorem-sweep":
        return {"scenario": op.kind, "seeds": [op.arg("seed")],
                "params": {"max_rank": op.arg("max_rank"),
                           "n_unitaries": op.arg("n_unitaries")}}
    if op.kind == "envariance-check":
        return {"scenario": op.kind, "seeds": [op.arg("seed")],
                "params": {"rank": op.arg("rank")}}
    if op.kind == "born-finegrain":
        return {"scenario": op.kind, "params": {"mu": op.arg("mu"), "nu": op.arg("nu")}}
    if op.kind == "spectrum-split":
        n_pairs = op.arg("n_pairs")
        return {"scenario": op.kind,
                "engine": {"barrier_height": op.arg("barrier_height"),
                           "n_trunc": 2 * n_pairs},
                "params": {"n_pairs": n_pairs}}
    raise ValueError(f"{op.kind} is not a scenario op")


def _run_scenario(raw: dict):
    rep = scenarios.run_scenario(scenarios.resolve_config(raw))
    return report.render_json(rep)


def _report_failures(text: str) -> tuple[dict, list]:
    doc = json.loads(text)
    failed = [f"check {c['name']} failed" for c in doc["checks"] if not c["passed"]]
    if not doc["passed"] and not failed:
        failed.append("report not passed")
    return doc, failed


def _check_quantum_cycle(op: Op, raw: dict, text: str) -> list:
    doc, failed = _report_failures(text)
    eps_beta = op.arg("eps_beta")
    n_trunc = doc["config"]["engine"]["n_trunc"]
    z_ref = math.fsum(math.exp(-eps_beta * n * n) for n in range(1, n_trunc + 1))
    z = doc["data"]["z_exact"]
    if not abs(z - z_ref) <= 1e-12 * z_ref:
        failed.append(f"z_exact {z!r} != direct sum {z_ref!r}")
    return failed


def _check_theorem_sweep(op: Op, raw: dict, text: str) -> list:
    doc, failed = _report_failures(text)
    dists = doc["data"]["restoration_distances"]
    if sorted(int(r) for r in dists) != list(range(1, op.arg("max_rank") + 1)):
        failed.append("ranks swept do not match max_rank")
    elif any(len(d) != op.arg("n_unitaries") for d in dists.values()):
        failed.append("unitaries sampled do not match n_unitaries")
    return failed


def _check_envariance_check(op: Op, raw: dict, text: str) -> list:
    doc, failed = _report_failures(text)
    if doc["data"]["rank"] != op.arg("rank"):
        failed.append("report rank differs from the requested rank")
    return failed


def _check_born_finegrain(op: Op, raw: dict, text: str) -> list:
    doc, failed = _report_failures(text)
    mu, nu = op.arg("mu"), op.arg("nu")
    if Fraction(doc["data"]["p_up"]) != Fraction(mu, mu + nu):
        failed.append(f"p_up {doc['data']['p_up']} != {mu}/{mu + nu}")
    if doc["data"]["branch_count"] != mu + nu:
        failed.append("branch count differs from mu + nu")
    return failed


def _check_spectrum_split(op: Op, raw: dict, text: str) -> list:
    doc, failed = _report_failures(text)
    fd = [c for c in doc["checks"] if c["name"] == "fd_oracle_max_relative_difference"]
    if len(fd) != 1:
        failed.append("report lacks the FD-oracle check")
    if len(doc["table"]["rows"]) != op.arg("n_pairs"):
        failed.append("not every requested doublet was solved")
    return failed


# ---------------------------------------------------------------------------
# library ops
# ---------------------------------------------------------------------------

def _prepare_bound(op: Op):
    return op.arg("target"), op.arg("max_den")


def _run_bound(args):
    target, max_den = args
    return envariance.incommensurate_bound(target, max_den)


def _check_bound(op: Op, args, bracket) -> list:
    target, max_den = Fraction(op.arg("target")), op.arg("max_den")
    failed = []
    if not bracket.low <= target <= bracket.high:
        failed.append(f"bracket [{bracket.low}, {bracket.high}] misses {target}")
    if max(bracket.low.denominator, bracket.high.denominator) > max_den:
        failed.append("bracket denominator exceeds max_den")
    # the closest fraction is always one of the two best one-sided ones
    closest = target.limit_denominator(max_den)
    if closest not in (bracket.low, bracket.high):
        failed.append(f"closest fraction {closest} is neither bracket endpoint")
    return failed


def _prepare_ladder(op: Op):
    """System and bath (energies, degeneracies) as tuples, and the total energy."""
    levels = op.arg("levels")
    index = np.arange(levels)
    if op.arg("exponential"):
        # degeneracy e^(growth E): shell counting must return beta = growth
        growth = op.arg("growth")
        spacing = CC_LOG_DEG_MAX / (growth * (levels - 1))
        step = max(1, round(1.0 / (growth * spacing)))
        bath_e = index * spacing
        bath_g = np.rint(np.exp(growth * bath_e)).astype(np.int64)
        system = (tuple(k * step * spacing for k in range(4)), (1, 1, 1, 1))
        total = float(bath_e[-1])
    else:
        # small random degeneracies: every joint microstate can be enumerated
        rng = np.random.default_rng(op.arg("seed"))
        bath_e = index * CC_ENUM_SPACING
        bath_g = rng.integers(1, 4, size=levels)
        system = ((0.0, CC_ENUM_SPACING, 2 * CC_ENUM_SPACING), (1, 2, 1))
        total = CC_ENUM_SPACING * (levels // 2)
    return system, (tuple(bath_e.tolist()), tuple(bath_g.tolist())), total


def _run_ladder(args):
    system, bath, total = args
    return equilibrium.canonical_by_counting(
        equilibrium.LevelLadder(*system), equilibrium.LevelLadder(*bath),
        total_energy=total)


def _check_ladder(op: Op, args, fit) -> list:
    if op.arg("exponential"):
        growth = op.arg("growth")
        if not abs(fit.beta - growth) <= 0.05 * growth:
            return [f"fitted beta {fit.beta} not within 5% of growth {growth}"]
        return []
    (sys_e, sys_g), (bath_e, bath_g), total = args
    states = np.repeat(np.asarray(bath_e), np.asarray(bath_g))
    window = CC_ENUM_SPACING / 2.0
    brute = np.array([g * np.count_nonzero(np.abs(e + states - total) <= window)
                      for e, g in zip(sys_e, sys_g)], dtype=float)
    brute /= brute.sum()
    diff = float(np.max(np.abs(np.asarray(fit.occupancies) - brute)))
    return [] if diff <= 1e-12 else [f"occupancies differ from enumeration by {diff}"]


KINDS = {
    "quantum-cycle": OpKind(_scenario_raw, _run_scenario, _check_quantum_cycle),
    "theorem-sweep": OpKind(_scenario_raw, _run_scenario, _check_theorem_sweep),
    "envariance-check": OpKind(_scenario_raw, _run_scenario, _check_envariance_check),
    "born-finegrain": OpKind(_scenario_raw, _run_scenario, _check_born_finegrain),
    "spectrum-split": OpKind(_scenario_raw, _run_scenario, _check_spectrum_split),
    "incommensurate-bound": OpKind(_prepare_bound, _run_bound, _check_bound),
    "canonical-by-counting": OpKind(_prepare_ladder, _run_ladder, _check_ladder),
}

"""Tests of the benchmark itself: seeded inputs, reference checks, tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import envstat  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from envstat import hilbert  # noqa: E402
from envstat.envariance import RationalBracket  # noqa: E402


def _first(workload, seed, n=3):
    return list(islice(workloads.decks(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_mix_does_not_depend_on_seed(workload):
    strata = {"incommensurate-bound": (workloads.IB_MAX_DEN, workloads.IB_PER_DECK),
              "canonical-by-counting": (workloads.CC_LEVELS, workloads.CC_PER_DECK)}

    def stratum(op):
        if op.kind not in strata:
            return op.size
        (lo, hi), n = strata[op.kind]
        return min(int(n * math.log(op.size / lo) / math.log(hi / lo)), n - 1)

    def mix(seed):
        return [sorted((op.kind, stratum(op)) for op in deck)
                for deck in _first(workload, seed)]

    assert mix(1) == mix(2)


def test_inputs_stay_inside_their_ranges():
    ops = [op for w in workloads.WORKLOADS for deck in _first(w, 3, 6) for op in deck]
    for op in ops:
        if op.kind == "theorem-sweep":
            assert 4 <= op.arg("max_rank") <= 16 and 20 <= op.arg("n_unitaries") <= 50
        elif op.kind == "envariance-check":
            assert 2 <= op.arg("rank") <= 64
        elif op.kind == "born-finegrain":
            assert op.arg("mu") >= 1 and op.arg("nu") >= 1
            assert op.arg("mu") + op.arg("nu") <= 512
        elif op.kind == "incommensurate-bound":
            assert 0.01 <= op.arg("target") <= 0.99
        elif op.kind == "spectrum-split":
            assert 1200.0 <= op.arg("barrier_height") <= 4800.0
            assert 5 <= op.arg("n_pairs") <= 16
        elif op.kind == "canonical-by-counting":
            assert 10_000 <= op.arg("levels") <= 1_000_000
    assert {op.size for op in ops if op.kind == "quantum-cycle"} == {284, 400, 566, 896}


def _run_checked(op):
    kind = workloads.KINDS[op.kind]
    args = kind.prepare(op)
    out = kind.run(args)
    return args, out, kind.check(op, args, out)


def test_small_ops_of_every_library_kind_pass():
    ops = [
        workloads.Op("incommensurate-bound", (("target", 0.3183), ("max_den", 1000)), 1000.0),
        workloads.Op("born-finegrain", (("mu", 3), ("nu", 5)), 0.0),
        workloads.Op("spectrum-split", (("barrier_height", 2000.0), ("n_pairs", 5)), 5.0),
    ]
    for exponential in (True, False):
        ops.append(workloads.Op("canonical-by-counting",
                                (("levels", 10_000), ("exponential", exponential),
                                 ("growth", 1.3), ("seed", 4)), 1e4))
    for op in ops:
        assert _run_checked(op)[2] == [], op


def test_reference_checks_reject_wrong_answers():
    bound = workloads.Op("incommensurate-bound", (("target", 0.3), ("max_den", 10)), 10.0)
    wide = RationalBracket(Fraction(1, 4), Fraction(1, 3), True, True)
    assert workloads.KINDS[bound.kind].check(bound, None, wide)

    born = workloads.Op("born-finegrain", (("mu", 3), ("nu", 5)), 0.0)
    _, text, _ = _run_checked(born)
    doc = json.loads(text)
    doc["data"]["p_up"] = "3/7"
    assert workloads.KINDS[born.kind].check(born, None, json.dumps(doc))

    ladder = workloads.Op("canonical-by-counting",
                          (("levels", 10_000), ("exponential", False),
                           ("growth", 0.0), ("seed", 4)), 1e4)
    args, fit, _ = _run_checked(ladder)
    fit.occupancies[0] += 1e-9
    assert workloads.KINDS[ladder.kind].check(ladder, args, fit)


def _bindings():
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "envstat" or name.startswith("envstat."):
            for attr, value in vars(mod).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type) and "__post_init__" in vars(value):
                    snapshot[(name, attr, "__post_init__")] = vars(value)["__post_init__"]
    return snapshot


def test_tracer_wraps_every_binding_site_and_restores_it():
    before = _bindings()
    original = envstat.szilard.engine.thermal_state
    original_apply = hilbert.apply_local
    tr = tracer_mod.Tracer()
    with tr:
        assert envstat.szilard.ledger.thermal_state is not original
        assert envstat.scenarios.thermal_state is envstat.szilard.ledger.thermal_state
        assert envstat.equilibrium.apply_local is not original_apply
        assert envstat.envariance.apply_local is envstat.equilibrium.apply_local
        assert "__wrapped__" in vars(vars(hilbert.DensityOperator)["__post_init__"])
        hilbert.partial_trace_env(hilbert.BipartitePureState(np.eye(2) / np.sqrt(2)))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {span[0]: span for span in tr.spans}
    trace = [s for s in tr.spans if s[2] == "hilbert.partial_trace"][0]
    density = [s for s in tr.spans if s[2] == "hilbert.density_op"][0]
    assert density[1] == trace[0] and names[density[1]] is trace
    assert 0.0 <= tr.self_s["hilbert.partial_trace"] <= trace[4] - trace[3]
    assert tr.counters["hilbert.density_op.max_dim"] == 2


def test_tail_and_scaling_helpers():
    samples = [float(i) for i in range(1, 31)]
    value, pct = run.tail(samples)
    assert value == 20.0 and sum(s > value for s in samples) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * 20 / 30)
    fit = [(n, 3.0 * n**2) for n in (10, 20, 40) for _ in range(3)]
    assert run.scaling_exponent(fit) == pytest.approx(2.0)
    assert run.scaling_exponent([(5.0, 1.0)]) == 0.0

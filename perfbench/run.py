"""envstat benchmark: seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload engine-cycle --seed 1 --seconds 50 --trace 0

One client runs ops back to back in one process (closed loop).  With
``--trace 0`` it reports the end-to-end metrics: set-up time of fresh
processes, op latency median and tail, op throughput and peak RSS.  With
``--trace 1`` it runs a fixed number of decks untraced, then the same ops
under the span tracer, and reports per-layer metrics.  Every op's output is
checked against a reference; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Environment,
tail percentile and per-layer shares go to the lines before it and to a
result file under ``.perfbench/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("engine-cycle", "spectrum-envariance")
SETUP_STARTS = 5            # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10            # samples the tail latency must have beyond it
# decks per traced run: fixed, so per-layer counts repeat exactly
TRACE_DECKS = {"engine-cycle": 2, "spectrum-envariance": 4}
TRACE_UNTRACED_SHARE = 0.4  # the untraced phase stops early past this share of --seconds
ALLOC_KINDS = ("quantum-cycle",)  # the only op kind reaching szilard.engine/ledger
# op kinds by the part of the library they exercise, for the trace verdicts
FAMILY = {"quantum-cycle": "engine", "spectrum-split": "spectrum",
          "canonical-by-counting": "spectrum", "theorem-sweep": "envariance",
          "envariance-check": "envariance", "born-finegrain": "envariance",
          "incommensurate-bound": "envariance"}

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mib", "MiB"))


def blas_threads() -> int:
    """BLAS threads: the CPUs this process may use, capped at two.

    On the 2-core reference machine one thread made engine-cycle both
    slower and less steady from run to run than two.
    """
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class OpLog:
    """Latency and verdict of every op a phase ran."""

    def __init__(self):
        self.ops = []
        self.latencies = []     # seconds, every op in order
        self.passed = []        # seconds, ops that passed their checks
        self.busy_s = 0.0       # summed latency of every op
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def run(self, op) -> None:
        import workloads

        kind = workloads.KINDS[op.kind]
        args = kind.prepare(op)
        start = time.perf_counter()
        try:
            out = kind.run(args)
        except Exception:
            latency = time.perf_counter() - start
            problems = [traceback.format_exc(limit=4)]
        else:
            latency = time.perf_counter() - start
            try:
                problems = kind.check(op, args, out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=4)]
        self.ops.append(op)
        self.latencies.append(latency)
        self.busy_s += latency
        if problems:
            self.failures.append({"kind": op.kind, "inputs": repr(op.inputs),
                                  "problems": problems})
        else:
            self.passed.append(latency)


def warm_up(first_deck) -> None:
    """Run the smallest op of each kind once so lazy set-up is not timed."""
    smallest = {}
    for op in first_deck:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    log = OpLog()
    for op in smallest.values():
        log.run(op)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def repeat_share(ops) -> float:
    """Share of ops whose inputs repeat an earlier op's inputs."""
    if not ops:
        return 0.0
    return 1.0 - len({(op.kind, op.inputs) for op in ops}) / len(ops)


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready time of SETUP_STARTS fresh probe processes, in turn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)]
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, OpLog]:
    import workloads

    setup = setup_seconds(workload, seed)
    stream = workloads.decks(workload, seed)
    first = next(stream)
    warm_up(first)

    log = OpLog()
    deck, decks_run, longest = first, 0, 0.0
    window = time.perf_counter()
    while True:
        started = time.perf_counter()
        for op in deck:
            log.run(op)
        decks_run += 1
        longest = max(longest, time.perf_counter() - started)
        if time.perf_counter() - window + longest > seconds:
            break
        deck = next(stream)

    if not log.passed:
        raise RuntimeError("no op passed its checks")
    tail_s, tail_pct = tail(log.passed)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(log.passed),
        "op_tail_s": tail_s,
        "ops_per_s": log.attempted / log.busy_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "decks": decks_run,
        "ops": log.attempted,
        "window_s": time.perf_counter() - window,
        "failed_op_frac": len(log.failures) / log.attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": min(TAIL_BEYOND, len(log.passed) - 1),
        "setup_samples_s": setup,
        "repeat_input_frac": repeat_share(log.ops),
        "ops_by_kind": dict(sorted(Counter(op.kind for op in log.ops).items())),
        "latencies_s": [[op.kind, op.size, t] for op, t in zip(log.ops, log.latencies)],
        "failures": log.failures[:5],
    }
    return metrics, info, log


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# per-layer scaling fits: metric -> (op kind, span name or layer)
SCALING = {
    "envariance.incommensurate_bound.scaling_exp":
        ("incommensurate-bound", "envariance.incommensurate_bound"),
    "equilibrium.canonical_by_counting.scaling_exp":
        ("canonical-by-counting", "equilibrium.canonical_by_counting"),
    "szilard.spectrum.split_numeric.scaling_exp":
        ("spectrum-split", "szilard.spectrum.split_numeric"),
    "szilard.engine.scaling_exp": ("quantum-cycle", "szilard.engine"),
    "szilard.ledger.scaling_exp": ("quantum-cycle", "szilard.ledger"),
}

SELF_TIMES = ("hilbert.density_op", "hilbert.unitary_op", "hilbert.schmidt",
              "hilbert.haar_unitary", "hilbert.apply_local", "hilbert.partial_trace",
              "envariance.countershift", "envariance.counterswap", "envariance.finegrain",
              "envariance.incommensurate_bound", "equilibrium.make_even_state",
              "equilibrium.counter_evolution", "equilibrium.verify_no_local_evolution",
              "equilibrium.canonical_by_counting", "szilard.spectrum.split_numeric",
              "szilard.spectrum.fd_oracle", "szilard.engine.thermal_state",
              "szilard.engine.barrier_thermal_state", "szilard.engine.measure_side",
              "szilard.ledger.free_energy_ledger", "report.render")


def scaling_exponent(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(median time) against log(size).

    0.0 when fewer than two sizes were seen (layer not exercised here).
    """
    by_size = defaultdict(list)
    for size, seconds in samples:
        if size > 0 and seconds > 0:
            by_size[size].append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    xm, ym = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
            / sum((x - xm) ** 2 for x in xs))


def traced(workload: str, seed: int, seconds: float):
    import tracemalloc

    import workloads
    from tracer import LAYERS, Tracer

    stream = workloads.decks(workload, seed)
    plan = [next(stream) for _ in range(TRACE_DECKS[workload])]
    warm_up(plan[0])

    plain = OpLog()
    start = time.perf_counter()
    for deck in plan:
        for op in deck:
            plain.run(op)
        if time.perf_counter() - start > TRACE_UNTRACED_SHARE * seconds:
            break

    tracer = Tracer()
    traced_log = OpLog()
    samples = defaultdict(list)
    family_self = defaultdict(Counter)  # family -> span name -> self seconds
    with tracer:
        for op in plain.ops:
            before = dict(tracer.self_s)
            traced_log.run(op)
            delta = {n: v - before.get(n, 0.0) for n, v in tracer.self_s.items()}
            family_self[FAMILY[op.kind]].update(delta)
            for metric, (kind, key) in SCALING.items():
                if op.kind == kind:
                    spent = sum(v for n, v in delta.items()
                                if n == key or tracer.layer_of[n] == key)
                    samples[metric].append((op.size, spent))

    alloc = Tracer(track_alloc=True)
    alloc_log = OpLog()
    tracemalloc.start()
    try:
        with alloc:
            for op in plan[0]:
                if op.kind in ALLOC_KINDS:
                    alloc_log.run(op)
    finally:
        tracemalloc.stop()

    m = {}
    for layer in LAYERS:
        names = [n for n, lay in tracer.layer_of.items() if lay == layer]
        m[f"{layer}.calls"] = (sum(tracer.calls.get(n, 0) for n in names), "count")
        m[f"{layer}.self_s"] = (sum(tracer.self_s.get(n, 0.0) for n in names), "s")
        m[f"{layer}.total_s"] = (tracer.layer_total_s.get(layer, 0.0), "s")
        m[f"{layer}.errors"] = (sum(tracer.errors.get(n, 0) for n in names), "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    c = tracer.counters
    m["hilbert.density_op.calls"] = (tracer.calls.get("hilbert.density_op", 0), "count")
    m["hilbert.density_op.max_dim"] = (c["hilbert.density_op.max_dim"], "count")
    m["hilbert.density_op.bytes_computed"] = (c["hilbert.density_op.bytes_computed"], "B")
    certs = tracer.calls.get("envariance.certificate", 0)
    m["envariance.certificate.calls"] = (certs, "count")
    m["envariance.certificate.accept_ratio"] = (
        c["envariance.certificate.accepted"] / certs if certs else 0.0, "ratio")
    m["equilibrium.canonical_by_counting.bath_levels"] = (
        c["equilibrium.canonical_by_counting.bath_levels"], "count")
    m["szilard.spectrum.split_numeric.calls"] = (
        tracer.calls.get("szilard.spectrum.split_numeric", 0), "count")
    requested = c["szilard.spectrum.doublets_requested"]
    m["szilard.spectrum.doublets_retained_ratio"] = (
        c["szilard.spectrum.doublets_retained"] / requested if requested else 0.0, "ratio")
    m["szilard.ledger.free_energy_ledger.total_s"] = (
        tracer.total_s.get("szilard.ledger.free_energy_ledger", 0.0), "s")
    for layer in ("szilard.engine", "szilard.ledger"):
        peak = max((v for n, v in alloc.peak_alloc.items() if alloc.layer_of[n] == layer),
                   default=0)
        m[f"{layer}.peak_alloc_mib"] = (peak / 2**20, "MiB")
    for metric in SCALING:
        m[metric] = (scaling_exponent(samples[metric]), "1")
    traced_s = traced_log.busy_s
    self_total = sum(tracer.self_s.values())
    m["trace.overhead_frac"] = (traced_s / plain.busy_s - 1.0, "ratio")
    m["trace.accounted_frac"] = (self_total / traced_s, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.ops"] = (traced_log.attempted, "count")

    shares = {layer: m[f"{layer}.self_s"][0] / self_total for layer in LAYERS}
    shares["hilbert.density_op"] = tracer.self_s.get("hilbert.density_op", 0.0) / self_total
    shares["equilibrium.canonical_by_counting"] = (
        tracer.self_s.get("equilibrium.canonical_by_counting", 0.0) / self_total)
    info = {
        "decks": len(plan),
        "ops_untraced": plain.attempted,
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": traced_s,
        "self_share": shares,
        "predictions": _predictions(family_self, tracer.layer_of),
        "failures": (plain.failures + traced_log.failures + alloc_log.failures)[:5],
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    logs = (plain, traced_log, alloc_log)
    return m, info, logs


def _predictions(family_self: dict, layer_of: dict) -> list[str]:
    """Verdicts on the predicted self-time shares of each family of ops."""
    verdicts = []
    for family, parts in (("engine", ("szilard.engine", "hilbert.density_op")),
                          ("spectrum", ("szilard.spectrum",
                                        "equilibrium.canonical_by_counting"))):
        spent = family_self.get(family)
        if not spent:
            continue
        share = (sum(v for n, v in spent.items() if n in parts or layer_of[n] in parts)
                 / sum(spent.values()))
        verdicts.append(f"{family} ops: {' + '.join(parts)} dominate: "
                        f"{'confirmed' if share > 0.5 else 'refuted'} (share {share:.3f})")
    if "envariance" in family_self:
        szilard = sum(v for n, v in family_self["envariance"].items()
                      if layer_of[n].startswith("szilard"))
        verdicts.append(f"envariance ops: szilard absent: "
                        f"{'confirmed' if szilard == 0 else 'refuted'} ({szilard:.3g} s)")
    return verdicts


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "envstat" / "__init__.py").is_file():
        print(f"error: no envstat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    sys.path.insert(0, str(SRC))

    if args.trace:
        metrics, info, logs = traced(args.workload, args.seed, args.seconds)
    else:
        values, info, log = end_to_end(args.workload, args.seed, args.seconds)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        logs = (log,)
    attempted = sum(log.attempted for log in logs)
    failed = sum(len(log.failures) for log in logs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    record = {"env": environment(args.workload, args.seed), "info": info,
              "trace": args.trace, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'failed_op_frac':48s} {info['failed_op_frac']:14.6g} ratio")
        print(f"op_tail_s is p{info['op_tail_percentile']:.1f} of {info['ops']} ops "
              f"({info['op_tail_samples_beyond']} beyond)")
    else:
        print("self-time share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in info["self_share"].items()))
        for verdict in info["predictions"]:
            print("prediction: " + verdict)
    for failure in info["failures"]:
        print(f"FAILED {failure['kind']} {failure['inputs']}: {failure['problems']}",
              file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

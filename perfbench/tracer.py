"""Span tracer that wraps envstat's public functions from outside the package.

Modules import by name (``from .hilbert import schmidt``), so a function is
reachable through several module globals.  ``Tracer.install`` replaces every
binding of each target function in every loaded ``envstat`` module, and the
``__post_init__`` of each validated constructor on its class;
``Tracer.uninstall`` puts every original object back.

Spans (name, start, end, parent id) are kept in memory and written out by
``write_spans`` when the run ends.  Self time (span duration minus the time
its child spans cover) and the per-name counters are aggregated online.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("hilbert", "envariance", "equilibrium", "szilard.spectrum",
          "szilard.engine", "szilard.ledger", "scenarios", "report")


def _density_note(tracer, args, kwargs, result):
    dim = args[0].matrix.shape[0]
    tracer.counters["hilbert.density_op.max_dim"] = max(
        tracer.counters["hilbert.density_op.max_dim"], dim)
    tracer.counters["hilbert.density_op.bytes_computed"] += 16 * dim * dim


def _certificate_note(tracer, args, kwargs, result):
    tracer.counters["envariance.certificate.accepted"] += bool(result)


def _split_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "numeric")
    return f"szilard.spectrum.split_{mode}"


def _split_note(tracer, args, kwargs, result):
    if result.source == "numeric":
        n_pairs = kwargs.get("n_pairs", args[2] if len(args) > 2 else None)
        if n_pairs is None:
            n_pairs = max(args[0].n_trunc // 2, 1)
        tracer.counters["szilard.spectrum.doublets_requested"] += n_pairs
        tracer.counters["szilard.spectrum.doublets_retained"] += result.count


def _canonical_note(tracer, args, kwargs, result):
    bath = kwargs.get("bath", args[1] if len(args) > 1 else None)
    tracer.counters["equilibrium.canonical_by_counting.bath_levels"] += bath.count


# (module, attribute path, span name or name function, layer, note)
TARGETS = (
    ("envstat.hilbert", "StateVector.__post_init__", "hilbert.state_vector", "hilbert", None),
    ("envstat.hilbert", "BipartitePureState.__post_init__", "hilbert.bipartite_state", "hilbert", None),
    ("envstat.hilbert", "SchmidtForm.__post_init__", "hilbert.schmidt_form", "hilbert", None),
    ("envstat.hilbert", "DensityOperator.__post_init__", "hilbert.density_op", "hilbert", _density_note),
    ("envstat.hilbert", "UnitaryOperator.__post_init__", "hilbert.unitary_op", "hilbert", None),
    ("envstat.hilbert", "tensor", "hilbert.tensor", "hilbert", None),
    ("envstat.hilbert", "schmidt", "hilbert.schmidt", "hilbert", None),
    ("envstat.hilbert", "partial_trace_env", "hilbert.partial_trace", "hilbert", None),
    ("envstat.hilbert", "partial_trace_sys", "hilbert.partial_trace", "hilbert", None),
    ("envstat.hilbert", "von_neumann_entropy", "hilbert.entropy", "hilbert", None),
    ("envstat.hilbert", "apply_local", "hilbert.apply_local", "hilbert", None),
    ("envstat.hilbert", "haar_unitary", "hilbert.haar_unitary", "hilbert", None),
    ("envstat.envariance", "PhaseShift.__post_init__", "envariance.phase_shift", "envariance", None),
    ("envstat.envariance", "PhaseShift.to_unitary", "envariance.phase_shift", "envariance", None),
    ("envstat.envariance", "countershift_for", "envariance.countershift", "envariance", None),
    ("envstat.envariance", "swap_unitary", "envariance.swap_unitary", "envariance", None),
    ("envstat.envariance", "counterswap_for", "envariance.counterswap", "envariance", None),
    ("envstat.envariance", "equal_probability_certificate", "envariance.certificate", "envariance", _certificate_note),
    ("envstat.envariance", "all_pairs_certified", "envariance.all_pairs_certified", "envariance", None),
    ("envstat.envariance", "finegrain_born_rule", "envariance.finegrain", "envariance", None),
    ("envstat.envariance", "coarse_probabilities", "envariance.coarse_probabilities", "envariance", None),
    ("envstat.envariance", "incommensurate_bound", "envariance.incommensurate_bound", "envariance", None),
    ("envstat.equilibrium", "EvenState.__post_init__", "equilibrium.even_state", "equilibrium", None),
    ("envstat.equilibrium", "make_even_state", "equilibrium.make_even_state", "equilibrium", None),
    ("envstat.equilibrium", "counter_evolution_for", "equilibrium.counter_evolution", "equilibrium", None),
    ("envstat.equilibrium", "verify_no_local_evolution", "equilibrium.verify_no_local_evolution", "equilibrium", None),
    ("envstat.equilibrium", "LevelLadder.__post_init__", "equilibrium.level_ladder", "equilibrium", None),
    ("envstat.equilibrium", "canonical_by_counting", "equilibrium.canonical_by_counting", "equilibrium", _canonical_note),
    ("envstat.equilibrium", "thermal_purification", "equilibrium.thermal_purification", "equilibrium", None),
    ("envstat.szilard.spectrum", "SplitSpectrum.__post_init__", "szilard.spectrum.split_validate", "szilard.spectrum", None),
    ("envstat.szilard.spectrum", "box_spectrum", "szilard.spectrum.box_spectrum", "szilard.spectrum", None),
    ("envstat.szilard.spectrum", "split_spectrum", _split_name, "szilard.spectrum", _split_note),
    ("envstat.szilard.spectrum", "fd_pair_energies", "szilard.spectrum.fd_oracle", "szilard.spectrum", None),
    ("envstat.szilard.engine", "thermal_state", "szilard.engine.thermal_state", "szilard.engine", None),
    ("envstat.szilard.engine", "z_boltzmann_gas", "szilard.engine.z_boltzmann_gas", "szilard.engine", None),
    ("envstat.szilard.engine", "split_partition_function", "szilard.engine.split_partition_function", "szilard.engine", None),
    ("envstat.szilard.engine", "barrier_thermal_state", "szilard.engine.barrier_thermal_state", "szilard.engine", None),
    ("envstat.szilard.engine", "measure_side", "szilard.engine.measure_side", "szilard.engine", None),
    ("envstat.szilard.ledger", "free_energy_ledger", "szilard.ledger.free_energy_ledger", "szilard.ledger", None),
    ("envstat.szilard.ledger", "classical_ensemble_cycle", "szilard.ledger.classical_ensemble_cycle", "szilard.ledger", None),
    ("envstat.scenarios", "resolve_config", "scenarios.resolve_config", "scenarios", None),
    ("envstat.scenarios", "run_scenario", "scenarios.run", "scenarios", None),
    ("envstat.report", "render_json", "report.render", "report", None),
    ("envstat.report", "render_csv", "report.render", "report", None),
)


class _Frame:
    __slots__ = ("span_id", "name", "layer", "start", "child", "peak", "base")

    def __init__(self, span_id, name, layer, start):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.peak = 0
        self.base = 0


class Tracer:
    """Records a span around every call of each target while installed.

    With track_alloc, each span also records its peak traced allocation
    (``tracemalloc``) above the allocation level at its start; nested spans
    hand their peaks up to the parent, so one ``reset_peak`` per span does
    not hide a parent's peak.
    """

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans: list[tuple] = []          # (id, parent, name, start, end, failed)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.layer_total_s: dict[str, float] = defaultdict(float)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self._stack: list[_Frame] = []
        self._saved: list[tuple] = []
        self._next_id = 0

    # -- binding management -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "envstat" or n.startswith("envstat."))]
        for mod_name, path, name, layer, note in TARGETS:
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                self._rebind(cls, attr, self._wrap(original, name, layer, note))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name, layer, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, layer, note):
        tracer = self
        if isinstance(name, str):
            self.layer_of[name] = layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            tracer.layer_of.setdefault(span_name, layer)
            frame = tracer._enter(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, True)
                raise
            tracer._exit(frame, False)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, name, layer) -> _Frame:
        frame = _Frame(self._next_id, name, layer, 0.0)
        self._next_id += 1
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame.base = current
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, failed: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += duration - frame.child
        self.total_s[name] += duration
        if failed:
            self.errors[name] += 1
        if parent is None or parent.layer != frame.layer:
            self.layer_total_s[frame.layer] += duration
        if self.track_alloc:
            peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            self.peak_alloc[name] = max(self.peak_alloc[name], peak - frame.base)
            if parent is not None:
                parent.peak = max(parent.peak, peak)
        self.spans.append((frame.span_id, parent.span_id if parent else None,
                           name, frame.start, end, failed))

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, failed in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "failed": failed}) + "\n")

"""Span recorder for the traced benchmark run.

Spans are recorded at module boundaries: every public function of a layer
module is wrapped at the names through which *other* modules call it (the
names they imported, or ``cli``'s ``jsonio`` module reference), and the
CLI entry point ``cli.run`` is wrapped where the benchmark calls it.  Calls
inside one module stay unwrapped, so per-pair helpers add no overhead and
their time counts to the module that calls them.  ``Configuration`` methods
are wrapped on the class.  Nothing in the package itself changes, and
everything is restored when the ``instrument`` block ends.

A span is (id, name, start, end, parent id, thread, invocation).  A
module's self time is its spans' time minus their child spans, per thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import statistics
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "core": (
        "validate_configuration",
        "free_transport",
        "conserved_quantities",
        "kinetic_energy",
        "all_pairs",
        "Configuration.min_separation",
    ),
    "collision": ("first_collision", "predict_pair", "collision_time_gradients"),
    "scattering": ("scatter", "elastic_reflection", "inelastic_emission", "scattering_velocity_det_analytic"),
    "tct": (
        "classify_tct_domain",
        "tct_flow",
        "analytic_flow_jacobian_det",
        "contact_direction",
        "contraction_factor",
    ),
    "jacobian_lab": (
        "random_tct_case",
        "verify_flow_jacobian",
        "fd_determinant",
        "draw_scattering_sample",
        "verify_scattering_measure",
        "tensor_sum_det",
    ),
    "simulator": ("simulate", "random_configuration"),
    "measure_mc": ("estimate_pathological_measure", "ensemble_volume_evolution"),
    "rng": ("block_generator", "sample_generator", "uniform_ball", "unit_vector"),
    "jsonio": ("dumps", "load_file", "write_atomic", "csv_append"),
    "cli": ("run",),
}

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "collision.self_s": ("s", "lower"),
    "collision.first_collision.calls": ("count", "lower"),
    "collision.first_collision.p50_us": ("us", "lower"),
    "collision.pair_predictions": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.simulate.calls": ("count", "lower"),
    "simulator.events": ("count", "higher"),
    "simulator.us_per_event": ("us", "lower"),
    "core.self_s": ("s", "lower"),
    "core.min_separation.calls": ("count", "lower"),
    "core.free_transport.calls": ("count", "lower"),
    "core.validate_configuration.calls": ("count", "lower"),
    "scattering.self_s": ("s", "lower"),
    "scattering.scatter.calls": ("count", "lower"),
    "scattering.scatter.p50_us": ("us", "lower"),
    "scattering.emit_frac": ("ratio", "higher"),
    "tct.self_s": ("s", "lower"),
    "tct.classify_tct_domain.calls": ("count", "lower"),
    "tct.tct_flow.calls": ("count", "lower"),
    "tct.classify_tct_domain.p50_us": ("us", "lower"),
    "jacobian_lab.self_s": ("s", "lower"),
    "jacobian_lab.oracle_calls": ("count", "lower"),
    "jacobian_lab.map_evals_per_oracle": ("count", "lower"),
    "jacobian_lab.case_draw_tries": ("count", "lower"),
    "jacobian_lab.branch_crossings": ("count", "lower"),
    "measure_mc.self_s": ("s", "lower"),
    "measure_mc.estimate.calls": ("count", "lower"),
    "measure_mc.simulate_calls_per_volume": ("count", "lower"),
    "measure_mc.hit_frac": ("ratio", "higher"),
    "measure_mc.parallel_efficiency": ("ratio", "higher"),
    "rng.self_s": ("s", "lower"),
    "rng.uniform_ball.calls": ("count", "lower"),
    "rng.block_generator.calls": ("count", "lower"),
    "jsonio.self_s": ("s", "lower"),
    "jsonio.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Span fields in recording order, with their array type codes.
SPAN_COLUMNS = {"id": "q", "name": "i", "start": "d", "end": "d", "parent": "q", "thread": "i", "invocation": "i"}

# Spans whose children are evaluations of the flow map or its branch label.
ORACLE_SPANS = ("jacobian_lab.verify_flow_jacobian", "jacobian_lab.fd_determinant")
MAP_EVAL_SPANS = ("tct.tct_flow", "tct.classify_tct_domain", "simulator.simulate")


def _pair_count(args, result):
    # first_collision predicts every pair of its configuration.
    n = args[0].n_particles
    return {"collision.pair_predictions": n * (n - 1) // 2}


def _event_count(args, result):
    return {"simulator.events": len(result.events)}


def _emitting(args, result):
    return {"scattering.emitting": int(result.kind.value == "inelastic")}


def _bytes_out(args, result):
    return {"jsonio.bytes_out": len(args[1].encode("utf-8"))}


# Counters taken from a wrapped call's arguments and result.
COUNTER_HOOKS = {
    "collision.first_collision": _pair_count,
    "simulator.simulate": _event_count,
    "scattering.scatter": _emitting,
    "jsonio.write_atomic": _bytes_out,
}


class Recorder:
    """Spans and counters kept in memory until the run writes them out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # spans not yet sealed
        self._sealed = {column: array(code) for column, code in SPAN_COLUMNS.items()}
        # Keyed by (invocation, counter) and (invocation, span, exception).
        self.counters: dict[tuple[int, str], int] = {}
        self.raised: dict[tuple[int, str, str], int] = {}
        self.invocations: list[dict] = []
        self.invocation = -1
        self._ids = itertools.count()
        self._threads: dict[int, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin_invocation(self, info: dict):
        self.invocations.append(info)
        self.invocation = len(self.invocations) - 1

    def _thread_no(self) -> int:
        ident = threading.get_ident()
        number = self._threads.get(ident)
        if number is None:
            with self._lock:
                number = self._threads.setdefault(ident, len(self._threads))
        return number

    def _count(self, increments: dict):
        with self._lock:
            for name, value in increments.items():
                key = (self.invocation, name)
                self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, span_name: str, fn):
        """``fn`` recording one span per call."""
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        hook = COUNTER_HOOKS.get(span_name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            parent = stack[-1] if stack else -1
            span_id = next(rec._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (rec.invocation, span_name, type(exc).__name__)
                with rec._lock:
                    rec.raised[key] = rec.raised.get(key, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                rec.spans.append((span_id, name_id, start, end, parent, rec._thread_no(), rec.invocation))
            if hook is not None:
                rec._count(hook(args, result))
            return result

        return traced

    def seal(self):
        """Move the recorded spans into compact columns (a tuple per span
        costs about four times the memory)."""
        for column, values in zip(self._sealed.values(), zip(*self.spans)):
            column.extend(values)
        self.spans = []

    def write(self, path):
        """Write spans, counters and invocations as gzipped JSON, the spans
        as one list per field."""
        self.seal()
        header = {
            "names": self.names,
            "invocations": self.invocations,
            "counters": [[inv, name, n] for (inv, name), n in sorted(self.counters.items())],
            "raised": [[inv, name, exc, n] for (inv, name, exc), n in sorted(self.raised.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(header)[:-1] + ', "spans": {')
            for k, (column, values) in enumerate(self._sealed.items()):
                handle.write(f'{", " if k else ""}"{column}": {json.dumps(values.tolist())}')
            handle.write("}}")


class _ModuleView:
    """Stand-in for a module reference: listed attributes are replaced."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every layer function at the names other modules call it by,
    for the duration of the block."""
    modules = {layer: importlib.import_module(f"ihse.{layer}") for layer in LAYERS}
    undo = []

    def patch(owner, name, value):
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    try:
        for layer, module in modules.items():
            plain = {}
            for qualname in LAYERS[layer]:
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name)
                    patch(cls, method, recorder.wrap(f"{layer}.{method}", getattr(cls, method)))
                else:
                    plain[getattr(module, qualname)] = qualname
            if layer == "cli":
                # The benchmark is cli.run's caller and looks it up here.
                patch(module, "run", recorder.wrap("cli.run", module.run))
                continue
            wrapped = {fn: recorder.wrap(f"{layer}.{name}", fn) for fn, name in plain.items()}
            for other in modules.values():
                if other is module:
                    continue
                for attr, value in list(vars(other).items()):
                    if value is module:
                        view = {name: wrapped[fn] for fn, name in plain.items()}
                        patch(other, attr, _ModuleView(module, view))
                    elif callable(value) and value in wrapped:
                        patch(other, attr, wrapped[value])
        yield recorder
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)


def _p50_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def layer_metrics(recorder: Recorder, invocations: range, docs: dict) -> dict:
    """Per-layer metrics of one traced pass: its invocation ids and its
    output documents by invocation key."""
    spans = [s for s in recorder.spans if s[6] in invocations]
    names = recorder.names
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    oracle_map_evals = case_draw_tries = volume_simulates = branch_crossings = 0
    for span_id, name_id, start, end, parent, _, invocation in spans:
        name = names[name_id]
        self_s[name.split(".")[0]] += (end - start) - child_time.get(span_id, 0.0)
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)
        parent_name = names[by_id[parent][1]] if parent in by_id else None
        if name in MAP_EVAL_SPANS and parent_name in ORACLE_SPANS:
            oracle_map_evals += 1
        if name == "collision.first_collision" and parent_name == "jacobian_lab.random_tct_case":
            case_draw_tries += 1
        if name == "simulator.simulate" and recorder.invocations[invocation]["command"] == "volume":
            volume_simulates += 1
    for (invocation, name, exc), count in recorder.raised.items():
        if invocation in invocations and name.startswith("jacobian_lab.") and exc == "BranchCrossingError":
            branch_crossings += count
    counters: dict[str, int] = {}
    for (invocation, name), count in recorder.counters.items():
        if invocation in invocations:
            counters[name] = counters.get(name, 0) + count
    oracle_calls = sum(calls.get(n, 0) for n in ORACLE_SPANS)
    events = counters.get("simulator.events", 0)
    simulate_time = sum(durations.get("simulator.simulate", []))
    scatters = calls.get("scattering.scatter", 0)
    volumes = sum(1 for i in invocations if recorder.invocations[i]["command"] == "volume")
    samples = sum(doc["estimate"]["n_samples"] for key, doc in docs.items() if key.startswith("measure/"))
    hits = sum(doc["estimate"]["hits"] for key, doc in docs.items() if key.startswith("measure/"))
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update(
        {
            "collision.first_collision.calls": calls.get("collision.first_collision", 0),
            "collision.first_collision.p50_us": _p50_us(durations.get("collision.first_collision", [])),
            "collision.pair_predictions": counters.get("collision.pair_predictions", 0),
            "simulator.simulate.calls": calls.get("simulator.simulate", 0),
            "simulator.events": events,
            "simulator.us_per_event": simulate_time / events * 1e6 if events else 0.0,
            "core.min_separation.calls": calls.get("core.min_separation", 0),
            "core.free_transport.calls": calls.get("core.free_transport", 0),
            "core.validate_configuration.calls": calls.get("core.validate_configuration", 0),
            "scattering.scatter.calls": scatters,
            "scattering.scatter.p50_us": _p50_us(durations.get("scattering.scatter", [])),
            "scattering.emit_frac": counters.get("scattering.emitting", 0) / scatters if scatters else 0.0,
            "tct.classify_tct_domain.calls": calls.get("tct.classify_tct_domain", 0),
            "tct.tct_flow.calls": calls.get("tct.tct_flow", 0),
            "tct.classify_tct_domain.p50_us": _p50_us(durations.get("tct.classify_tct_domain", [])),
            "jacobian_lab.oracle_calls": oracle_calls,
            "jacobian_lab.map_evals_per_oracle": oracle_map_evals / oracle_calls if oracle_calls else 0.0,
            "jacobian_lab.case_draw_tries": (
                case_draw_tries / calls["jacobian_lab.random_tct_case"]
                if calls.get("jacobian_lab.random_tct_case")
                else 0.0
            ),
            "jacobian_lab.branch_crossings": branch_crossings,
            "measure_mc.estimate.calls": calls.get("measure_mc.estimate_pathological_measure", 0),
            "measure_mc.simulate_calls_per_volume": volume_simulates / volumes if volumes else 0.0,
            "measure_mc.hit_frac": hits / samples if samples else 0.0,
            "rng.uniform_ball.calls": calls.get("rng.uniform_ball", 0),
            "rng.block_generator.calls": calls.get("rng.block_generator", 0),
            "jsonio.bytes_out": counters.get("jsonio.bytes_out", 0),
            "cli.run.calls": calls.get("cli.run", 0),
        }
    )
    return metrics

"""Run one hsfsense CLI command with spans recorded around the calls into each layer.

Usage: python3 traced.py TRACE_JSON CLI_ARGS...

The functions named in ``run.SPAN_METRIC`` are replaced, wherever a module of the
package holds a reference to them, by wrappers that record a span (name,
start, end, parent span) per call.  Spans of the run share one trace id, stay
in memory and are written to TRACE_JSON when the command has finished,
together with the counters below and two kernel timings taken afterwards on
the largest operator the command built:

- ``matvecs``: operator-vector products on operators returned by a
  ``build_h_*`` function (the operator is wrapped on return);
- ``norm_drift``: max | ||psi|| - 1 | over the states the propagator returned;
- ``op_bytes``: bytes of the largest operator returned (data + indices + indptr);
- ``edges`` / ``fragments``: edges of the census graph and fragments found;
- ``matvec_ms``: one ``H @ psi`` with a seeded random ``psi``, median of repeats;
- ``step_ms``: one ``EvolutionEngine(H).evolve(psi0, 0.1)`` from the first state
  the command evolved, median of repeats (0 when the command evolves nothing).

``post_s`` is the time spent after the command returned (kernel timings and
bookkeeping), so the caller can subtract it from the process wall time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import uuid
from importlib import import_module

import numpy as np

from run import SPAN_METRIC

MATVEC_REPEATS = 9
STEP_REPEATS = 3
STEP_T = 0.1


class Tracer:
    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.counters = {"matvecs": 0, "norm_drift": 0.0, "op_bytes": 0, "edges": 0, "fragments": 0}
        self.largest_op = None
        self.first_state = None
        self._counting_types: dict = {}

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[span_id] = [span_id, parent, name, start, end]
            if hook is not None:
                # bookkeeping gets a span of its own so it is not charged to the caller
                hook_id = len(self.spans)
                self.spans.append(None)
                hook(self, result, args)
                self.spans[hook_id] = [hook_id, parent, "trace.hook", end, time.perf_counter()]
            return result

        return traced

    def counting(self, op):
        """Make ``op`` count the vectors it is applied to (its class is swapped in place)."""
        base = type(op)
        if base not in self._counting_types:
            tracer = self

            def __matmul__(self, other):
                if tracer.active and getattr(other, "ndim", 0) in (1, 2):
                    tracer.counters["matvecs"] += 1 if other.ndim == 1 else other.shape[1]
                return base.__matmul__(self, other)

            self._counting_types[base] = type(base.__name__, (base,), {"__matmul__": __matmul__})
        op.__class__ = self._counting_types[base]
        return op


def _operator_bytes(op) -> int:
    return sum(getattr(op, a).nbytes for a in ("data", "indices", "indptr") if hasattr(op, a))


def _on_build(tracer: Tracer, op, _args) -> None:
    tracer.counting(op)
    size = _operator_bytes(op)
    if size > tracer.counters["op_bytes"]:
        tracer.counters["op_bytes"] = size
        tracer.largest_op = op


def _on_evolve(tracer: Tracer, result, args) -> None:
    if tracer.first_state is None:
        tracer.first_state = args[1]
    for psi in result if isinstance(result, list) else (result,):
        drift = abs(float(np.linalg.norm(psi)) - 1.0)
        tracer.counters["norm_drift"] = max(tracer.counters["norm_drift"], drift)


def _on_census(tracer: Tracer, report, args) -> None:
    h_eff = args[0]
    # the census graph is symmetric: each edge is two nonzero off-diagonal entries
    off_diagonal = np.count_nonzero(h_eff.data) - np.count_nonzero(h_eff.diagonal())
    tracer.counters["edges"] += int(off_diagonal) // 2
    tracer.counters["fragments"] += report.total_fragments


HOOKS = {
    **{name: _on_build for name in SPAN_METRIC if name.startswith("hamiltonian.build_h_")},
    "evolve.EvolutionEngine.evolve": _on_evolve,
    "evolve.EvolutionEngine.evolve_grid": _on_evolve,
    "fragments.adjacency_components": _on_census,
}


def install(tracer: Tracer) -> dict:
    """Wrap every function in SPAN_METRIC at its definition and at every module-level alias."""
    modules = {}
    replaced = {}
    for name in SPAN_METRIC:
        module_name, *outer, attr = name.split(".")
        if module_name not in modules:
            modules[module_name] = import_module(f"hsfsense.{module_name}")
        owner = modules[module_name]
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(original, name, HOOKS.get(name))
        setattr(owner, attr, wrapper)
        replaced[id(original)] = wrapper
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hsfsense"):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
    return modules


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def kernel_timings(tracer: Tracer, engine_cls) -> dict:
    """matvec and propagator-step times on the largest operator the run built."""
    op = tracer.largest_op
    if op is None:
        return {"matvec_ms": 0.0, "step_ms": 0.0}
    rng = np.random.default_rng(0)
    psi = rng.normal(size=op.shape[0]) + 1j * rng.normal(size=op.shape[0])
    psi /= np.linalg.norm(psi)
    op @ psi  # warm-up
    kernels = {"matvec_ms": _median_ms(lambda: op @ psi, MATVEC_REPEATS), "step_ms": 0.0}
    if tracer.first_state is not None:
        engine = engine_cls(op)
        kernels["step_ms"] = _median_ms(lambda: engine.evolve(tracer.first_state, STEP_T), STEP_REPEATS)
    return kernels


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = install(tracer)
    tracer.active = True
    status = modules["cli"].main(cli_args)
    tracer.active = False
    post_start = time.perf_counter()
    kernels = kernel_timings(tracer, modules["evolve"].EvolutionEngine)
    record = {
        "trace_id": tracer.trace_id,
        "status": status,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "kernels": kernels,
    }
    record["post_s"] = time.perf_counter() - post_start
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's traced run wraps every function that ``perfbench/run.py``
names in ``SPAN_METRIC``; a renamed or deleted target must fail here, not
only in the benchmark's own self-test."""

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_run(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks itself up in sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_metric_target_resolves(monkeypatch):
    run = load_run(monkeypatch)
    assert run.SPAN_METRIC
    for name, metric in run.SPAN_METRIC.items():
        # the lookup perfbench/traced.py:install makes: hsfsense.<module>, then attributes
        module_name, *outer, attr = name.split(".")
        owner = import_module(f"hsfsense.{module_name}")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{name} does not resolve"
        assert metric is None or metric in run.LAYER_METRICS, f"{name} feeds unknown {metric}"

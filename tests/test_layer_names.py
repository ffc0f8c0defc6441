"""The benchmark's per-layer metrics name package functions, which the
tracer looks up by name: each must still exist."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
TRACED = sorted({tuple(m["name"].split(".")[:2]) for m in BENCHMARK["per_layer"]
                 if m["name"].count(".") == 2 and m["name"].endswith((".calls", ".self_s"))
                 and importlib.util.find_spec(f"numrange_lab.{m['name'].split('.')[0]}") is not None})


def test_the_metrics_name_functions():
    assert ("numrange", "kprime_relative") in TRACED and ("oracle", "restricted_max_set") in TRACED


@pytest.mark.parametrize("module, function", TRACED)
def test_traced_function_exists(module, function):
    mod = importlib.import_module(f"numrange_lab.{module}")
    assert hasattr(mod, function) or hasattr(mod, "_" + function), f"{module}.{function}"

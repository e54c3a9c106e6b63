"""Every function the benchmark's tracer wraps exists under its name.

The tracer (``benchmarks/tracer.py``) wraps pipeline functions by
``<module>.<function>`` name; a traced name that a change renames or
inlines would make its layer read zero.  The tracer module is loaded
from its file, and each module it names is imported here, so the result
does not depend on which tests ran before.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _not_defined(names):
    """The ``<module>.<function>`` names that are not a function defined
    in ``powertext.<module>`` under that name."""
    missing = []
    for qualname in names:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"powertext.{module_name}")
        function = vars(module).get(attr)
        if not (
            inspect.isfunction(function)
            and function.__module__ == module.__name__
            and function.__name__ == attr
        ):
            missing.append(qualname)
    return missing


def test_every_traced_name_is_a_function_of_its_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec = importlib.util.spec_from_file_location("powertext_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = tracer.SPAN_FUNCTIONS + tracer.COUNTED_FUNCTIONS
    assert names and _not_defined(names) == []


def test_names_that_are_not_functions_of_their_module_are_found():
    # Absent; a class; a function imported from another module.
    names = ["textcore.no_such_function", "textcore.Document", "report.compute_stats"]
    assert _not_defined(names + ["textcore.tokenize"]) == names

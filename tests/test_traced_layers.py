"""The layer functions that perfbench's traced rows and counters name.

perfbench/tracer.py wraps only plain public functions (`inspect.isfunction`)
and names each row `<module>.<qualname>`; a decorated, cached or nested layer
would silently drop out of the per-layer report.
"""

import importlib
import inspect

import pytest

TRACED_ROWS = [
    "extractor.toeplitz_extract",
    "extractor.read_bits",
    "extractor.write_bits",
    "detector.mc_sample",
    "optimizer.optimize",
    "optimizer.rate_surface",
    "qubit.binary_entropy_arr",
    "acquisition.read_counts",
    "acquisition.certify",
    "cli.build_parser",
    "cli.main",
]


@pytest.mark.parametrize("row", TRACED_ROWS)
def test_layer_is_a_plain_module_function(row):
    module_name, name = row.split(".")
    fn = getattr(importlib.import_module(f"siqrng.{module_name}"), name)
    assert inspect.isfunction(fn)
    assert f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}" == row
    assert fn.__module__ == f"siqrng.{module_name}"

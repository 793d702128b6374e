"""The benchmark's bindings to the program still resolve.

perfbench/ drives the program by public names: its worker builds the set-up
objects and binds each single-point call by module attribute, and each CLI
step is an argv for cli.main.  A renamed or retired name must fail here, in
the test suite, rather than in a benchmark run.
"""

import math
import sys
from pathlib import Path

import pytest

from ratiodist import cli

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, _PERFBENCH)
    try:
        import worker
        import workloads
    finally:
        sys.path.remove(_PERFBENCH)
    return worker, workloads


@pytest.mark.parametrize("name", ["closed_form", "mellin_grid", "cf_grid", "point_queries"])
def test_every_benchmark_request_binds_to_the_program(perfbench, name):
    worker, workloads = perfbench
    spec = workloads.build(name, 1)
    objs = worker.build_objects(spec["objects"])
    assert set(objs) == set(spec["objects"])
    for req in spec["requests"]:
        if req["kind"] == "call":
            fn, args = worker.bind_call(req, objs)
            value = fn(*args)
            assert isinstance(value, float) and math.isfinite(value), (req["id"], value)
        else:
            # the worker appends --out to every step
            for step in req["steps"]:
                cli._parser().parse_args(step["argv"] + ["--out", "out"])

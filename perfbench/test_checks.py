"""Tests of the request lists and of the launcher's output checks.

Run with ``python3 -m pytest perfbench -q``.
"""

import numpy as np
import pytest

import reference
import run
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_request_lists_are_seeded_and_fixed_in_shape(name):
    a, b, c = (workloads.build(name, s) for s in (1, 1, 2))
    assert a == b
    assert a != c
    # the same request kinds, in the same order, whatever the seed
    assert [r["id"] for r in a["requests"]] == [r["id"] for r in c["requests"]]
    assert [r["id"] for r in a["requests"] if "fault" in r] == \
        [r["id"] for r in c["requests"] if "fault" in r]


def test_hake_draws_stay_in_band():
    import random

    import hake

    rng = random.Random(0)
    for _ in range(200):
        a, b = hake.standardized(*hake.bivariate(workloads.draw_hake(rng)))
        assert workloads.HAKE_A[0] <= a <= workloads.HAKE_A[1]
        assert workloads.HAKE_B[0] <= b <= workloads.HAKE_B[1]


def _csv(x, y):
    return "x,value\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))


def _step(name, rid):
    req = next(r for r in workloads.build(name, 1)["requests"] if r["id"] == rid)
    return req, req["steps"][0]["check"]


def test_reference_output_passes_and_a_wrong_one_fails():
    req, check = _step("mellin_grid", "direct-std1.5_1")
    x = np.linspace(-5.0, 8.0, 1000)
    good = reference.pdf(check["dist"], x)
    assert run.check_grid(check, _csv(x, good))[0] == 1000
    bad = good.copy()
    bad[500] *= 1.0 + 1e-5
    with pytest.raises(ValueError):
        run.check_grid(check, _csv(x, bad))


def test_kept_mellin_fault_is_caught():
    req, check = _step("mellin_grid", "std500_500")
    x = np.linspace(0.99, 1.01, 5)
    out = [{"rc": 0, "stderr": "", "text": _csv(x, np.zeros(5))}]
    values, _, reason = run.check_request(req, out)
    assert values == 0 and "reference" in reason


def test_cdf_properties():
    req, check = _step("cf_grid", "bk-cdf-hake0")
    lo, hi = check["interval"]
    x = np.linspace(lo, hi, check["n"])
    good = reference.cdf(check["dist"], x)
    assert run.check_grid(check, _csv(x, good))[0] == check["n"]
    with pytest.raises(ValueError, match="decreases"):
        run.check_grid(check, _csv(x, good[::-1]))


def test_modality_verdict_is_checked():
    req = next(r for r in workloads.build("closed_form", 1)["requests"]
               if r["id"] == "analysis-std2_0.25")
    check = req["steps"][2]["check"]
    assert run.check_modality(check, "bimodal\nb*(2) = 0.5\n") == (1, 0.0)
    with pytest.raises(ValueError):
        run.check_modality(check, "unimodal\n")


def test_failed_exit_is_a_failed_operation():
    req = next(r for r in workloads.build("cf_grid", 1)["requests"]
               if r["id"] == "gp-pdf-normal-auto")
    out = [{"rc": 1, "stderr": "error: no convergence", "text": "x,value\n"}]
    assert run.check_request(req, out)[2].startswith("pdf exited 1")

"""Tests of the benchmark's own references (not part of the repo's tier-1 suite).

    OPENBLAS_NUM_THREADS=1 python3 -m pytest -q perfbench/test_reference.py

The Eckart levels are checked against a dense finite-difference solve
(numpy.linalg.eigvalsh), extrapolated to h -> 0 from two grids.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402

S = 1.0  # hbar^2/(2m)

WELLS = {
    # pure coth well: kappa = 1, three bound levels
    "coth": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0, "V0": 12.0, "V1": 0.0, "V2": 0.0, "alpha": 1.0},
    # coth well with a cosech^2 barrier: kappa = 2, two bound levels
    "barrier": {"a": 1.0, "b": 0.0, "c": -2.0, "d": 0.0, "V0": 28.0, "V1": 0.0, "V2": 1.0, "alpha": 1.0},
    # every channel active, alpha != 1, kappa = 1.5
    "family": {"a": 2.0, "b": 0.5, "c": -1.0, "d": 1.5, "V0": 22.0, "V1": 2.0, "V2": 2.0, "alpha": 2.0},
}


def dense_fd(p, n_interior, n_levels):
    """(lowest levels, h) of the three-point operator on [0, 40/alpha], Dirichlet ends."""
    r_max = 40.0 / p["alpha"]
    h = r_max / (n_interior + 1)
    r = h * np.arange(1, n_interior + 1)
    v, _ = reference.potential(p, r)
    t = S / (h * h)
    m = np.diag(2 * t + v) - t * np.eye(n_interior, k=1) - t * np.eye(n_interior, k=-1)
    return np.linalg.eigvalsh(m)[:n_levels], h


@pytest.mark.parametrize("name", sorted(WELLS))
def test_eckart_levels_match_extrapolated_dense_fd(name):
    p = WELLS[name]
    bound = [k for k in range(4) if reference.eckart_level(p, S, k)[1]]
    assert bound == list(range(len(bound))) and bound
    coarse, _ = dense_fd(p, 1199, len(bound))
    fine, _ = dense_fd(p, 2399, len(bound))
    extrapolated = (4.0 * fine - coarse) / 3.0  # the stencil errs at O(h^2)
    for k in bound:
        exact, _ = reference.eckart_level(p, S, k)
        binding = reference.asymptote(p) - exact
        assert abs(extrapolated[k] - exact) < 2e-3 * binding
        # extrapolation must gain: the formula is the limit, not a nearby value
        assert abs(extrapolated[k] - exact) < 0.25 * abs(fine[k] - exact)


@pytest.mark.parametrize("name", sorted(WELLS))
def test_first_unbound_index_is_a_box_state(name):
    p = WELLS[name]
    k = next(k for k in range(6) if not reference.eckart_level(p, S, k)[1])
    levels, _ = dense_fd(p, 1199, k + 1)
    assert levels[k] > reference.asymptote(p) > levels[k - 1]


def test_fd_error_estimate_predicts_the_stencil_error():
    p = WELLS["barrier"]
    n_points = 2000
    levels, _ = dense_fd(p, n_points - 2, 1)
    exact, _ = reference.eckart_level(p, S, 0)
    scale = reference.fd_error_estimate(p, S, 0.0, 40.0, n_points)
    # the scale bounds the first-order error, and is within 2x of it here
    assert 0.5 < abs(levels[0] - exact) / scale < 1.05


def test_eckart_form_reproduces_the_family():
    p = WELLS["family"]
    r = np.linspace(0.05, 5.0, 50)
    A, B, C = reference.family(p)
    x = p["alpha"] * r
    eckart = -A / np.tanh(x) + B / np.sinh(x) ** 2 + C
    v, _ = reference.potential(p, r)
    assert np.allclose(v, eckart, rtol=1e-13, atol=0)
    for ri, vi in zip(r, v):
        xi = p["alpha"] * ri
        coth = math.cosh(xi) / math.sinh(xi)
        direct = (-p["a"] * p["V0"] * coth + p["b"] * p["V1"] * coth ** 2
                  - p["c"] * p["V2"] / math.sinh(xi) ** 2 + p["d"])
        assert vi == pytest.approx(direct, rel=1e-13)


def test_fall_to_center_threshold():
    base = {"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0, "V0": 1.0, "V1": 0.0, "V2": 1.0, "alpha": 2.0}
    # B / alpha^2 = -c V2 / 4: -0.3 is past -1/4 at l = 0 only
    deep = {**base, "c": 1.2}
    shallow = {**base, "c": 0.8}
    assert reference.fall_to_center(deep, S, 0)
    assert not reference.fall_to_center(deep, S, 1)
    assert not reference.fall_to_center(shallow, S, 0)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripwave import (ModelParams, NonlinearityKind, NonlinearitySpec, c_max,
                       eval_nonlinearity, lipschitz_constant)
from conftest import scalar_reaction

CUBIC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)
PLO = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=0.25)


def test_params_must_be_positive():
    with pytest.raises(ValueError, match="D"):
        ModelParams(d=1.0, D=-4.0, mu=1.0, L=1.0)
    with pytest.raises(ValueError, match="theta"):
        NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=1.5)


def test_eval_at_threshold_vanishes():
    f, fp = eval_nonlinearity(0.3, CUBIC)
    assert f == 0.0 and fp == 0.0


def test_eval_at_one():
    # d/du [(u-theta)^2 (1-u)] at u=1 is -(1-theta)^2 = -0.49
    f, fp = eval_nonlinearity(1.0, CUBIC)
    assert f == pytest.approx(0.0, abs=1e-15)
    assert fp == pytest.approx(-0.49, abs=1e-15)


def test_eval_midpoint_value():
    f, _ = eval_nonlinearity(0.65, CUBIC)
    assert f == pytest.approx(0.35**2 * 0.35, abs=1e-15)


def test_extension_convention():
    f_neg, fp_neg = eval_nonlinearity(-0.5, CUBIC)
    assert f_neg == 0.0 and fp_neg == 0.0
    f_big, fp_big = eval_nonlinearity(1.5, CUBIC)
    assert f_big == pytest.approx(-0.49 * 0.5)
    assert fp_big == pytest.approx(-0.49)


def test_plo_kink_uses_right_derivative():
    f, fp = eval_nonlinearity(0.25, PLO)
    assert f == 0.0
    assert fp == -1.0


def test_vectorized_matches_scalar():
    u = np.array([-1.0, 0.0, 0.3, 0.5, 1.0, 2.0])
    f_vec, fp_vec = eval_nonlinearity(u, CUBIC)
    for k, uk in enumerate(u):
        f_s, fp_s = eval_nonlinearity(float(uk), CUBIC)
        assert f_vec[k] == f_s
        assert fp_vec[k] == fp_s


@pytest.mark.parametrize("spec", [CUBIC, PLO], ids=["cubic", "oracle"])
def test_scalar_reaction_matches_eval(spec):
    f = scalar_reaction(spec)
    theta = spec.theta
    u = np.concatenate([np.linspace(-0.2, 1.5, 1701),
                        [theta, math.nextafter(theta, 1.0), math.nextafter(theta, -1.0), 1.0]])
    assert [f(uk) for uk in u.tolist()] == [eval_nonlinearity(uk, spec)[0] for uk in u.tolist()]


@given(st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
def test_sign_pattern(u):
    f, _ = eval_nonlinearity(u, CUBIC)
    if 0.0 <= u <= 1.0:
        assert f >= 0.0
    else:
        assert f <= 0.0


@pytest.mark.parametrize("u", [0.45, 0.6, 0.8, 0.95])
def test_derivative_finite_difference_order(u):
    errs = []
    for h in (1e-3, 5e-4):
        fp_fd = (eval_nonlinearity(u + h, CUBIC)[0] - eval_nonlinearity(u - h, CUBIC)[0]) / (2 * h)
        errs.append(abs(fp_fd - eval_nonlinearity(u, CUBIC)[1]))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0  # O(h^2): halving h quarters the error


def test_lipschitz_plo_is_one():
    assert lipschitz_constant(PLO) == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_cubic_against_dense_oracle():
    # independent oracle: brute-force maximization of |2(u-t)(1-u) - (u-t)^2|
    u = np.linspace(0.0, 1.0, 10_000_001)
    _, fp = eval_nonlinearity(u, CUBIC)
    expected = np.abs(fp).max()
    assert lipschitz_constant(CUBIC) == pytest.approx(float(expected), abs=1e-10)


@pytest.mark.parametrize("kind", list(NonlinearityKind))
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, 0.95])
def test_lipschitz_equals_dense_max(kind, theta):
    # the closed form |f'(1)| is exactly the sampled max, reached at u = 1
    spec = NonlinearitySpec(kind=kind, theta=theta)
    _, fp = eval_nonlinearity(np.linspace(0.0, 1.0, 100_001), spec)
    assert lipschitz_constant(spec) == float(np.abs(fp).max())


def test_lipschitz_shrinks_as_theta_approaches_one():
    spec = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.999)
    assert lipschitz_constant(spec) < 1e-5


def test_cmax_branch_agreement_at_crossover():
    # d=1, D=2, Lip f=1: both branch formulas give exactly 2
    params = ModelParams(d=1.0, D=2.0, mu=1.0, L=1.0)
    assert c_max(params, PLO) == pytest.approx(2.0, abs=1e-12)
    assert math.sqrt(2.0**2 / (2.0 - 1.0) * 1.0) == pytest.approx(2.0)


def test_cmax_fast_line_branch():
    params = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
    assert c_max(params, PLO) == pytest.approx(math.sqrt(16.0 / 3.0), rel=1e-12)


def test_cmax_slow_line_branch():
    params = ModelParams(d=1.0, D=1.0, mu=1.0, L=1.0)
    # Lip f = 0.49 for the cubic at theta = 0.3 (tangent slope at u = 1)
    assert c_max(params, CUBIC) == pytest.approx(2.0 * math.sqrt(0.49), rel=1e-9)


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
       st.floats(min_value=0.05, max_value=0.9, allow_nan=False))
def test_cmax_continuous_in_line_diffusivity(d, theta):
    spec = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=theta)
    lip = lipschitz_constant(spec)
    left = c_max(ModelParams(d=d, D=2.0 * d, mu=1.0, L=1.0), spec)
    assert left == pytest.approx(2.0 * math.sqrt(d * lip), rel=1e-12)
    assert left == pytest.approx(math.sqrt((2.0 * d) ** 2 / d * lip), rel=1e-12)

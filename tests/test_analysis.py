import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripwave import (ModelParams, approximation_identity_mass, bessel_k0, k0_line_mass,
                       scan_symbol_zero_free, symbol_denominator)
from stripwave.analysis import symbol_scan_table
from stripwave.errors import DomainError

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)


def F(xi, epsilon=0.0, c0=1.0, c1=0.0, params=PARAMS):
    return complex(symbol_denominator(params, epsilon, c0, c1, xi))


def test_symbol_at_zero_frequency():
    # all xi-terms vanish and beta(0) = 1: F(0) = d sinh(L)
    assert F(0.0) == pytest.approx(PARAMS.d * math.sinh(PARAMS.L), rel=1e-14)
    assert F(0.0).imag == 0.0


def test_symbol_unit_value():
    unit = ModelParams(d=1.0, D=1.0, mu=1.0, L=1.0)
    assert F(0.0, params=unit) == pytest.approx(1.1752011936438014, rel=1e-12)  # sinh(1)


def test_symbol_quadratic_cosh_growth():
    # |F| ~ (D/mu) xi^2 cosh(xi L) for eps = 0: huge ratio between xi = 20 and 10
    assert abs(F(20.0)) / abs(F(10.0)) > 1e3


@settings(max_examples=50)
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_symbol_conjugate_symmetry(xi, eps):
    a = F(xi, epsilon=eps)
    b = F(-xi, epsilon=eps)
    assert b == pytest.approx(a.conjugate(), rel=1e-12, abs=1e-12)


def test_scan_zero_free_default():
    margin = scan_symbol_zero_free(PARAMS, epsilon=0.0, c0=1.0, c1=0.0, xi_max=50.0, n=10_001)
    assert margin > 0.0
    # xi = 0 is in the scan (odd n), so the margin is at most d sinh(L)
    assert margin <= PARAMS.d * math.sinh(PARAMS.L) + 1e-12


def test_scan_epsilon_damping_does_not_shrink_margin():
    m0 = scan_symbol_zero_free(PARAMS, 0.0, 1.0, 0.0, xi_max=50.0, n=10_001)
    m1 = scan_symbol_zero_free(PARAMS, 1.0, 1.0, 0.0, xi_max=50.0, n=10_001)
    assert m1 >= m0


def test_scan_table_shape():
    table = symbol_scan_table(PARAMS, 0.0, 1.0, 0.0, xi_max=5.0, n=11)
    assert table.shape == (11, 4)
    assert np.allclose(table[:, 3], np.hypot(table[:, 1], table[:, 2]))


def test_scan_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon must be >= 0, got -1"):
        symbol_scan_table(PARAMS, -1.0, 1.0, 0.0, xi_max=5.0, n=11)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        scan_symbol_zero_free(PARAMS, -0.5, 1.0, 0.0, xi_max=5.0, n=11)


def simpson_k0(x, n=200_001, t_max=14.0):
    """Independent fine-grid quadrature oracle for K0."""
    t = np.linspace(0.0, t_max, n)
    vals = np.exp(-x * np.cosh(t))
    h = t[1] - t[0]
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


def test_k0_against_quadrature_oracle():
    oracle = simpson_k0(1.0)
    assert oracle == pytest.approx(0.4210, abs=5e-5)
    assert bessel_k0(1.0) == pytest.approx(oracle, abs=1e-8)
    assert bessel_k0(2.5) == pytest.approx(simpson_k0(2.5), abs=1e-8)


def test_k0_asymptotic_tail():
    # K0(x) sqrt(x) e^x -> sqrt(pi/2); within 1% at x = 20
    value = bessel_k0(20.0) * math.sqrt(20.0) * math.exp(20.0)
    assert value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-2)


def test_k0_domain():
    with pytest.raises(DomainError):
        bessel_k0(0.0)
    with pytest.raises(DomainError):
        bessel_k0(-1.0)


def test_k0_line_mass_is_pi():
    assert k0_line_mass() == pytest.approx(math.pi, abs=1e-6)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.01])
def test_approximation_identity_mass(eps):
    assert approximation_identity_mass(1.0, eps) == pytest.approx(1.0, abs=1e-4)

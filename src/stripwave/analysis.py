"""Constructive checks on the boundary-layer Fourier machinery.

The linearized top-boundary problem in the strip, solved by partial
Fourier transform in x, has solution kernels whose denominator is

    F(xi) = d beta sinh(beta L) (1 + eps D xi^2 / mu + eps (c0 + c1 eps) i xi / mu)
          + (D xi^2 / mu + (c0 + c1 eps) i xi / mu) cosh(beta L),
    beta(xi) = sqrt(xi^2 + 1).

Well-posedness of the kernel inversion needs F to be zero-free on the
real axis with quadratic (or better) growth at infinity, which
scan_symbol_zero_free verifies numerically; the complex-strip pole
analysis is out of scope here.

The kernel asymptotics involve the modified Bessel function K0, whose
Fourier transform is pi / sqrt(1 + xi^2); consequently
(1/(pi d eps)) K0(|x|/(d eps)) is an approximation to the identity, its
mass being exactly 1.  bessel_k0 evaluates K0 by direct quadrature of
the defining integral so it stays independently verifiable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import ModelParams


def symbol_denominator(params: ModelParams, epsilon: float, c0: float, c1: float,
                       xi) -> np.ndarray:
    """F(xi) as defined in the module docstring, elementwise over the real xi.

    Each part is cosh(beta L) times a finite factor: +-inf or 0, never nan, where cosh overflows."""
    xi = np.asarray(xi, dtype=float)
    beta = np.sqrt(xi * xi + 1.0)
    w_re, w_im = params.D * xi * xi / params.mu, (c0 + c1 * epsilon) * xi / params.mu
    t = params.d * beta * np.tanh(beta * params.L)  # d beta sinh(beta L) / cosh(beta L)
    with np.errstate(over="ignore", invalid="ignore"):
        cosh = np.cosh(beta * params.L)
        F = np.array(cosh * (t * (1.0 + epsilon * w_re) + w_re), dtype=complex)
        F.imag = np.where(w_im == 0.0, 0.0, cosh * (1.0 + epsilon * t) * w_im)
    return F  # not re + 1j * im: 1j * inf has a nan real part


def symbol_scan_table(params: ModelParams, epsilon: float, c0: float, c1: float,
                      xi_max: float, n: int) -> np.ndarray:
    """Columns (xi, Re F, Im F, |F|) at n uniform real frequencies in [-xi_max, xi_max]."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not xi_max > 0:
        raise ValueError(f"xi_max must be positive, got {xi_max}")
    xi = np.linspace(-xi_max, xi_max, n)
    F = symbol_denominator(params, epsilon, c0, c1, xi)
    return np.column_stack([xi, F.real, F.imag, np.abs(F)])


def scan_symbol_zero_free(params: ModelParams, epsilon: float, c0: float, c1: float,
                          xi_max: float, n: int) -> float:
    """Minimum of |F| over the frequencies of `symbol_scan_table`.

    A strictly positive return certifies the real-axis restriction of
    the zero-free strip; the margin is the returned value itself.
    """
    return float(symbol_scan_table(params, epsilon, c0, c1, xi_max, n)[:, 3].min())


def bessel_k0(x: float) -> float:
    """K0(x) for x > 0 by adaptive quadrature of int_0^inf exp(-x cosh t) dt.

    The integrand is truncated where it falls below 1e-16, i.e. at
    t = arccosh(37/x) when 37/x > 1; accuracy is 1e-8 or better.
    """
    if x <= 0:
        raise DomainError(f"bessel_k0 requires x > 0, got {x}")
    from scipy.integrate import quad  # lazy: slow to import, and no CLI command needs it

    ratio = 37.0 / x
    t_cut = math.acosh(ratio) + 1.0 if ratio > 1.0 else 1.0
    value, _ = quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, t_cut,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(value)


def k0_line_mass() -> float:
    """int over R of K0(|x|) dx, expected pi (the Fourier transform of
    K0(|x|) at frequency zero)."""
    from scipy.integrate import quad  # lazy: slow to import, and no CLI command needs it

    half, _ = quad(bessel_k0, 0.0, 45.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    return 2.0 * half


def approximation_identity_mass(d: float, epsilon: float) -> float:
    """Mass of the kernel family (1/(pi d eps)) K0(|x|/(d eps)), expected 1.

    Integrated without rescaling the variable, so small eps genuinely
    exercises the concentration of the kernel.
    """
    if d <= 0 or epsilon <= 0:
        raise DomainError("approximation_identity_mass needs d > 0 and epsilon > 0")
    from scipy.integrate import quad  # lazy: slow to import, and no CLI command needs it

    scale = d * epsilon
    half, _ = quad(lambda x: bessel_k0(x / scale), 0.0, 45.0 * scale,
                   epsabs=1e-10, epsrel=1e-10, limit=200)
    return 2.0 * half / (math.pi * scale)

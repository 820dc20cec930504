"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own quadrature engine:
closed forms are evaluated directly and numeric integrals go through
scipy's QUADPACK, so the two routes to every checked value share no code.
"""

import math
from math import comb

import numpy as np
from scipy.integrate import quad


def omega_closed_form(n: int) -> float:
    """Volume constant of the unit gauge ball (Gamma closed form)."""
    return (
        2.0
        * math.pi ** (n + 0.5)
        * math.gamma(n / 2.0)
        / ((n + 1) * math.gamma(float(n)) * math.gamma((n + 1) / 2.0))
    )


def hardy_extremal_ratio(Q: float, p: float, eps: float) -> float:
    """||H f_eps|| / ||f_eps|| for the power-tail family, by direct formula.

    For integer p the radial integral expands binomially into exact
    rationals; otherwise it falls back to QUADPACK in the log variable.
    """
    a = Q / p + eps
    A = Q / (Q - a)
    if p == int(p):
        ip = int(p)
        integral = sum(
            comb(ip, k) * (-1) ** k / (a * (ip - k) + Q * k - Q) for k in range(ip + 1)
        )
    else:
        fun = lambda u: (math.exp((Q / p - a) * u) - math.exp((Q / p - Q) * u)) ** p
        edges = np.concatenate([[0.0], np.geomspace(1e-3, 60.0 / (p * eps), 400)])
        integral = sum(quad(fun, lo, hi, limit=100)[0] for lo, hi in zip(edges[:-1], edges[1:]))
    return A * (integral * p * eps) ** (1.0 / p)


def dual_hardy_extremal_ratio(Q: float, p: float, eps: float) -> float:
    """Closed form: (Q/a) (1 + p eps / Q)^{1/p} with a = Q/p + eps."""
    a = Q / p + eps
    return (Q / a) * (1.0 + p * eps / Q) ** (1.0 / p)


def weighted_hardy_extremal_ratio(Q: float, p: float, eps: float, beta: float, c: float = 1.0) -> float:
    """Ratio for w(t) = c t^beta via the exact output profile.

    Hw f_eps(r) = c (r^{-a} - r^{-(beta+1)}) / (beta + 1 - a) for r > 1.
    """
    a = Q / p + eps
    b1 = beta + 1.0
    if p == int(p):
        ip = int(p)
        integral = sum(
            comb(ip, k) * (-1) ** k / (a * (ip - k) + b1 * k - Q) for k in range(ip + 1)
        )
        # sign bookkeeping: r^{-a} >= r^{-b1} on r >= 1 requires a <= b1
        assert a < b1
    else:
        fun = lambda u: abs(math.exp((Q / p - a) * u) - math.exp((Q / p - b1) * u)) ** p
        edges = np.concatenate([[0.0], np.geomspace(1e-3, 60.0 / (p * eps), 400)])
        integral = sum(quad(fun, lo, hi, limit=100)[0] for lo, hi in zip(edges[:-1], edges[1:]))
    return (c / (b1 - Q / p - eps)) * (integral * p * eps) ** (1.0 / p)


def weighted_cesaro_extremal_ratio(Q: float, p: float, eps: float, beta: float, c: float = 1.0) -> float:
    """Closed form for w(t) = c t^beta.

    H*w f_eps(r) = c r^{beta+1-Q} / D on (0, 1] and c r^{-a} / D beyond,
    with D = a + beta + 1 - Q; both radial integrals are elementary.
    """
    a = Q / p + eps
    D = a + beta + 1.0 - Q
    head = 1.0 / (p * (beta + 1.0 - Q) + Q)
    tail = 1.0 / (p * eps)
    return (c / D) * (p * eps * (head + tail)) ** (1.0 / p)


def scipy_radial_integral(fn, Q: float, lo: float, hi: float) -> float:
    """int fn(r) r^{Q-1} dr via QUADPACK, log-substituted for wide ranges."""
    fun = lambda u: fn(math.exp(u)) * math.exp(Q * u)
    u_lo = math.log(lo) if lo > 0 else -40.0
    u_hi = math.log(hi) if math.isfinite(hi) else 50.0
    edges = np.linspace(u_lo, u_hi, 80)
    return sum(quad(fun, a, b, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))


def hardy_truncated_power_norm(a: float, lo: float, hi: float, c: float, beta: float, Q: float, p: float) -> float:
    """(int |Hw f|^p r^{Q-1} dr)^{1/p} for f = r^a on (lo, hi) and w(t) = c t^beta.

    Hw f(r) = c r^a (min(1, hi/r)^s - (lo/r)^s) / s with s = a + beta + 1 for
    r > lo, zero below; it is kinked at lo and at hi, where QUADPACK is split.
    """
    s = a + beta + 1.0
    g = lambda r: c * r**a * (min(1.0, hi / r) ** s - (lo / r) ** s) / s
    head = quad(lambda u: abs(g(math.exp(u))) ** p * math.exp(Q * u), math.log(lo), math.log(hi),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    tail = quad(lambda r: abs(g(r)) ** p * r ** (Q - 1.0), hi, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return (head + tail) ** (1.0 / p)


def cesaro_truncated_power_norm(a: float, lo: float, hi: float, c: float, beta: float, Q: float, p: float) -> float:
    """(int |H*w f|^p r^{Q-1} dr)^{1/p} for f = r^a on (lo, hi) and w(t) = c t^beta.

    H*w f(r) = c r^a (min(1, r/lo)^s - (r/hi)^s) / s with s = beta - Q - a + 1
    for r < hi, zero beyond.  Below lo it is the pure power
    c (lo^-s - hi^-s) / s * r^{beta - Q + 1}, integrated in closed form;
    QUADPACK takes (lo, hi), where the output falls to 0 at hi.
    """
    s = beta - Q - a + 1.0
    e = p * (beta - Q + 1.0) + Q
    head = abs(c * (lo ** -s - hi ** -s) / s) ** p * lo**e / e
    g = lambda r: c * r**a * (1.0 - (r / hi) ** s) / s
    body = quad(lambda u: abs(g(math.exp(u))) ** p * math.exp(Q * u), math.log(lo), math.log(hi),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return (head + body) ** (1.0 / p)

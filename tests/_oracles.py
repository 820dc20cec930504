"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own quadrature engine:
closed forms are evaluated directly and numeric integrals go through
scipy's QUADPACK, so the two routes to every checked value share no code.
"""

import math

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


def _hardy_side_ratio(Q: float, p: float, eps: float, beta: float, c: float) -> float:
    """||Hw f_eps|| / ||f_eps|| for w(t) = c t^beta, in closed form at every real p.

    With d0 = beta + 1 - Q/p and x = p eps / (d0 - eps), the output's p-th
    power integrates to int_0^inf (e^{-eps u} - e^{-d0 u})^p du =
    B(x, p + 1) / (d0 - eps), so the ratio is
    c/(d0 - eps) [Gamma(1 + x) Gamma(p + 1) / Gamma(p + 1 + x)]^{1/p}.
    """
    d = beta + 1.0 - Q / p - eps
    assert d > 0.0, "the ratio is finite only for eps < beta + 1 - Q/p"
    x = p * eps / d
    return c / d * math.exp((math.lgamma(1.0 + x) + math.lgamma(p + 1.0) - math.lgamma(p + 1.0 + x)) / p)


def hardy_extremal_ratio(Q: float, p: float, eps: float) -> float:
    """||H f_eps|| / ||f_eps|| for the power-tail family: H is Hw with w(t) = Q t^{Q-1}."""
    return _hardy_side_ratio(Q, p, eps, Q - 1.0, Q)


def dual_hardy_extremal_ratio(Q: float, p: float, eps: float) -> float:
    """Closed form: (Q/a) (1 + p eps / Q)^{1/p} with a = Q/p + eps."""
    a = Q / p + eps
    return (Q / a) * (1.0 + p * eps / Q) ** (1.0 / p)


def weighted_hardy_extremal_ratio(Q: float, p: float, eps: float, beta: float, c: float = 1.0) -> float:
    """Ratio for w(t) = c t^beta, whose output is c (r^{-a} - r^{-(beta+1)}) / (beta + 1 - a) for r > 1."""
    return _hardy_side_ratio(Q, p, eps, beta, c)


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
    r > lo, zero below.  QUADPACK takes (lo, hi), where it is kinked at lo;
    beyond hi it is the pure power K r^{a-s}, K = c (hi^s - lo^s) / s, whose
    tail |K|^p hi^e / (-e), e = p (a - s) + Q, is taken in closed form in logs.
    """
    s = a + beta + 1.0
    g = lambda r: c * r**a * (min(1.0, hi / r) ** s - (lo / r) ** s) / s
    head = quad(lambda u: abs(g(math.exp(u))) ** p * math.exp(Q * u), math.log(lo), math.log(hi),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    e = p * (a - s) + Q
    # |hi^s - lo^s| is the larger power times 1 - e^{-|s| log(hi/lo)}
    log_k = (math.log(abs(c)) + max(s * math.log(hi), s * math.log(lo))
             + math.log(-math.expm1(-abs(s) * math.log(hi / lo))) - math.log(abs(s)))
    tail = math.exp(p * log_k + e * math.log(hi)) / -e
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

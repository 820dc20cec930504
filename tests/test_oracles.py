"""Checks of the oracles in _oracles.py against other routes to the same numbers.

The oracles judge the package, so they are checked here without it: against
exact closed forms, against the binomial and QUADPACK routes the Gamma forms
replaced, and against scipy's own log-gamma.
"""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from _oracles import hardy_extremal_ratio, hardy_truncated_power_norm, weighted_hardy_extremal_ratio


@pytest.mark.parametrize("L", [3.0, 20.0, 30.0, 40.0, 60.0])
def test_hardy_truncated_power_norm_keeps_its_tail_on_wide_windows(L):
    # f = r^-2 on (1, e^L) under H (w = 4 t^3, n = 1, Q = 4), p = 2: the squared norm is
    # 4L - 3 + 4e^{-2L} - e^{-4L} up to e^L plus (1 - e^{-2L})^2 beyond
    got = hardy_truncated_power_norm(-2.0, 1.0, math.exp(L), 4.0, 3.0, 4.0, 2.0) ** 2
    want = 4.0 * L - 2.0 + 2.0 * math.exp(-2.0 * L)
    assert abs(got - want) <= 1e-12 * want


def _binomial_or_quad_ratio(Q, p, eps, b1, c):
    """The Hardy-side ratio c/(b1 - a) (p eps int_0^inf (e^{-eps u} - e^{-(b1 - Q/p) u})^p du)^{1/p},
    a = Q/p + eps: an alternating binomial sum of exact terms at integer p, 400 QUADPACK panels
    otherwise; both lose digits as eps shrinks."""
    a = Q / p + eps
    if p == int(p):
        ip = int(p)
        integral = sum(comb(ip, k) * (-1) ** k / (a * (ip - k) + b1 * k - Q) for k in range(ip + 1))
    else:
        fun = lambda u: abs(math.exp((Q / p - a) * u) - math.exp((Q / p - b1) * u)) ** p
        edges = np.concatenate([[0.0], np.geomspace(1e-3, 60.0 / (p * eps), 400)])
        integral = sum(quad(fun, lo, hi, limit=100)[0] for lo, hi in zip(edges[:-1], edges[1:]))
    return c / (b1 - a) * (integral * p * eps) ** (1.0 / p)


@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 5.0, 7.3])
@pytest.mark.parametrize("Q", [4.0, 6.0])
@pytest.mark.parametrize("kind", ["hardy", "whardy-3", "whardy-6.5"])
def test_hardy_side_ratios_match_the_binomial_and_quad_routes(kind, Q, p, eps):
    if kind == "hardy":
        got, beta, c = hardy_extremal_ratio(Q, p, eps), Q - 1.0, Q
    else:
        beta, c = float(kind.split("-")[1]), 2.0
        if beta + 1.0 - Q / p <= eps:  # unbounded
            return
        got = weighted_hardy_extremal_ratio(Q, p, eps, beta, c)
    want = _binomial_or_quad_ratio(Q, p, eps, beta + 1.0, c)
    assert abs(got - want) <= 1e-12 * want


@given(p=st.floats(1.1, 20.0), log_eps=st.floats(math.log10(1e-6), math.log10(0.5)),
       Q=st.sampled_from([4.0, 6.0, 8.0]), beta=st.one_of(st.none(), st.floats(0.0, 12.0)),
       c=st.floats(0.1, 10.0))
@settings(max_examples=300, deadline=None)
def test_hardy_side_ratios_match_scipy_gammaln(p, log_eps, Q, beta, c):
    # x B(x, p + 1) = x Gamma(x) Gamma(p + 1) / Gamma(p + 1 + x), with None for H itself
    eps = 10.0 ** log_eps
    if beta is None:
        got, beta, c = hardy_extremal_ratio(Q, p, eps), Q - 1.0, Q
    else:
        assume(beta + 1.0 - Q / p - eps > 1e-3)
        got = weighted_hardy_extremal_ratio(Q, p, eps, beta, c)
    d = beta + 1.0 - Q / p - eps
    x = p * eps / d
    want = c / d * math.exp((math.log(x) + gammaln(x) + gammaln(p + 1.0) - gammaln(p + 1.0 + x)) / p)
    assert abs(got - want) <= 1e-13 * want

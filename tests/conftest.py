import tracemalloc

import pytest
from hypothesis import settings

from heishardy import operators, quadrature
from heishardy.geometry import heis_space
from heishardy.quadrature import QuadratureSpec

# reproducible property-test runs
settings.register_profile("default", deadline=None, derandomize=True)
settings.load_profile("default")


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn): the peak bytes that tracemalloc sees allocated while fn() runs."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def space1():
    return heis_space(1)


@pytest.fixture(scope="session")
def space2():
    return heis_space(2)


@pytest.fixture(scope="session")
def spec():
    return QuadratureSpec()


@pytest.fixture
def work_counts(monkeypatch):
    """Deterministic work counts of the quadrature engine, filled as the test runs.

    panels: GK15 panels evaluated; sweeps: quadrature._panels calls, one per
    step of a population; inner_integrals: the integrals of operator-output
    evaluations, which reach the engine through operators._integrals;
    populations: quadrature._population calls, outer and inner alike; cuts
    and ladders: quadrature._cut and quadrature._ladder calls, the set-up
    stages of a population.
    """
    counts = {"panels": 0, "inner_integrals": 0, "sweeps": 0, "populations": 0, "cuts": 0, "ladders": 0}
    panels, integrals, population = quadrature._panels, quadrature._integrals, quadrature._population
    cut, ladder = quadrature._cut, quadrature._ladder

    def counted_panels(fun, lo, *args):
        counts["panels"] += len(lo)
        counts["sweeps"] += 1
        return panels(fun, lo, *args)

    def counted_integrals(fun, lo, *args):
        counts["inner_integrals"] += len(lo)
        return integrals(fun, lo, *args)

    def counted_population(*args):
        counts["populations"] += 1
        return population(*args)

    def counted_cut(*args):
        counts["cuts"] += 1
        return cut(*args)

    def counted_ladder(*args):
        counts["ladders"] += 1
        return ladder(*args)

    monkeypatch.setattr(quadrature, "_panels", counted_panels)
    monkeypatch.setattr(quadrature, "_cut", counted_cut)
    monkeypatch.setattr(quadrature, "_ladder", counted_ladder)
    monkeypatch.setattr(quadrature, "_population", counted_population)
    monkeypatch.setattr(operators, "_integrals", counted_integrals)
    return counts


@pytest.fixture
def gauge_rows(monkeypatch):
    """{"rows": n}: the rows the box sampler has gauge-tested, filled as the test runs."""
    counts, gauge = {"rows": 0}, quadrature.koranyi_norm_array

    def counted(x):
        counts["rows"] += x.size // x.shape[-1]
        return gauge(x)

    monkeypatch.setattr(quadrature, "koranyi_norm_array", counted)
    return counts

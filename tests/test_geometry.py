import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heishardy.geometry import (
    DimensionMismatchError,
    GeometryReport,
    HeisPoint,
    ball_volume,
    dilate,
    group_inv,
    group_mul,
    group_mul_array,
    heis_distance,
    heis_space,
    koranyi_norm,
    koranyi_norm_array,
)

from _oracles import omega_closed_form

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def pt3(a, b, c):
    return HeisPoint((float(a), float(b), float(c)))


class TestGroupLaw:
    def test_hand_evaluated_product(self):
        assert group_mul(pt3(1, 0, 0), pt3(0, 1, 0)).coords == (1.0, 1.0, -2.0)

    def test_identity_element(self):
        assert group_mul(pt3(0, 0, 0), pt3(0.3, -1.2, 7.0)).coords == (0.3, -1.2, 7.0)

    def test_non_commutativity_witness(self):
        assert group_mul(pt3(0, 1, 0), pt3(1, 0, 0)).coords == (1.0, 1.0, 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            group_mul(pt3(1, 0, 0), HeisPoint((1.0, 0.0, 0.0, 0.0, 0.0)))

    @given(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord),
           st.tuples(coord, coord, coord))
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, a, b, c):
        x, y, z = HeisPoint(a), HeisPoint(b), HeisPoint(c)
        lhs = group_mul(group_mul(x, y), z)
        rhs = group_mul(x, group_mul(y, z))
        assert max(abs(l - r) for l, r in zip(lhs.coords, rhs.coords)) <= 1e-12


class TestInverse:
    def test_negation_formula(self):
        assert group_inv(pt3(1, 2, 3)).coords == (-1.0, -2.0, -3.0)

    def test_origin_self_inverse(self):
        assert group_inv(pt3(0, 0, 0)).coords == (-0.0, -0.0, -0.0)

    @given(st.tuples(coord, coord, coord))
    @settings(max_examples=200, deadline=None)
    def test_defining_property(self, a):
        x = HeisPoint(a)
        prod = group_mul(x, group_inv(x))
        # the symplectic terms cancel exactly in floating point
        assert max(abs(c) for c in prod.coords) <= 1e-15


class TestDilation:
    def test_formula(self):
        assert dilate(2.0, pt3(1, 1, 1)).coords == (2.0, 2.0, 4.0)

    def test_identity(self):
        assert dilate(1.0, pt3(0.5, -3, 2)).coords == (0.5, -3.0, 2.0)

    def test_semigroup(self):
        out = dilate(0.5, dilate(4.0, pt3(1, 1, 1)))
        assert out.coords == (2.0, 2.0, 4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dilate(0.0, pt3(1, 0, 0))
        with pytest.raises(ValueError):
            dilate(-1.0, pt3(1, 0, 0))

    @given(st.tuples(coord, coord, coord), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_gauge_homogeneity(self, a, r):
        x = HeisPoint(a)
        nx = koranyi_norm(x)
        if nx < 1e-6:
            return
        assert abs(koranyi_norm(dilate(r, x)) - r * nx) <= 1e-12 * r * nx


class TestKoranyiNorm:
    def test_horizontal_point(self):
        assert abs(koranyi_norm(pt3(1, 1, 0)) - math.sqrt(2)) < 1e-15

    def test_center_point(self):
        assert koranyi_norm(pt3(0, 0, 1)) == 1.0

    def test_origin(self):
        assert koranyi_norm(pt3(0, 0, 0)) == 0.0


class TestDistance:
    def test_coincident(self):
        x = pt3(0.3, 1.0, -2.0)
        assert heis_distance(x, x) == 0.0

    def test_reduces_to_norm(self):
        assert abs(heis_distance(pt3(1, 0, 0), pt3(0, 0, 0)) - 1.0) < 1e-15

    def test_left_invariance_bulk(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            d = 2 * n + 1
            z, p, q = (rng.uniform(-10, 10, (10_000, d)) for _ in range(3))
            base = koranyi_norm_array(group_mul_array(-q, p, n))
            moved = koranyi_norm_array(
                group_mul_array(-group_mul_array(z, q, n), group_mul_array(z, p, n), n)
            )
            mask = base > 1e-9
            rel = np.abs(moved[mask] - base[mask]) / base[mask]
            assert rel.max() <= 1e-10

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            d = 2 * n + 1
            p, x, q = (rng.uniform(-10, 10, (100_000, d)) for _ in range(3))
            d_pq = koranyi_norm_array(group_mul_array(-q, p, n))
            d_px = koranyi_norm_array(group_mul_array(-x, p, n))
            d_xq = koranyi_norm_array(group_mul_array(-q, x, n))
            assert int(np.sum(d_pq > d_px + d_xq + 1e-12)) == 0


class TestSpaceConstants:
    @pytest.mark.parametrize("n,expected", [
        (1, math.pi**2),
        (2, 4 * math.pi**2 / 3),
        (3, math.pi**4 / 8),
        (4, 4 * math.pi**4 / 45),
    ])
    def test_omega_exact_values(self, n, expected):
        sp = heis_space(n)
        assert abs(sp.omega_big - expected) <= 1e-12 * expected
        assert abs(sp.omega_big - omega_closed_form(n)) <= 1e-13 * expected

    def test_homogeneous_dimension(self):
        for n in range(1, 6):
            sp = heis_space(n)
            assert sp.q == 2 * n + 2
            assert sp.omega_small == sp.q * sp.omega_big

    def test_lebesgue_half_relation(self):
        # coordinate Lebesgue volume of the unit gauge ball is exactly half
        # the homogeneous volume constant
        for n in (1, 2, 3):
            sp = heis_space(n)
            assert abs(sp.unit_ball_lebesgue - sp.omega_big / 2) <= 1e-15 * sp.omega_big

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            heis_space(0)
        with pytest.raises(ValueError):
            heis_space(-2)

    @pytest.mark.parametrize("n", [130, 171, 172, 400])
    def test_rejects_n_whose_constants_overflow(self, n):
        # n = 130..171 used to give omega_big = 0.0, n >= 172 an OverflowError
        with pytest.raises(ValueError):
            heis_space(n)

    def test_largest_n_has_normal_constants(self):
        sp = heis_space(129)
        assert sys.float_info.min <= sp.omega_big < sp.omega_small < math.inf


class TestGeometryReport:
    def _report(self, **over):
        stats = dict(n=1, triples=10, max_associativity_error=0.0, max_inverse_error=0.0,
                     max_gauge_homogeneity_relerr=0.0, max_left_invariance_relerr=0.0,
                     triangle_violations=0, triangle_worst_slack=-1.0,
                     mc_volume_estimate=1.0, mc_volume_expected=1.0, mc_volume_stderrs=0.5)
        return GeometryReport(**{**stats, **over})

    def test_all_pass_is_the_conjunction_of_rows(self):
        assert self._report().all_pass
        for field, bad in [("max_associativity_error", 1e-11), ("max_inverse_error", 1e-14),
                           ("max_gauge_homogeneity_relerr", 1e-9),
                           ("max_left_invariance_relerr", 1e-9), ("triangle_violations", 1),
                           ("mc_volume_stderrs", 3.5)]:
            rep = self._report(**{field: bad})
            assert not rep.all_pass, field
            assert [row["pass"] for row in rep.rows()].count(False) == 1


class TestBallVolume:
    def test_unit_ball_n1(self, space1):
        assert abs(ball_volume(space1, 1.0) - math.pi**2) < 1e-12

    def test_unit_ball_n2(self, space2):
        assert abs(ball_volume(space2, 1.0) - 4 * math.pi**2 / 3) < 1e-12

    def test_scaling(self, space1):
        assert abs(ball_volume(space1, 2.0) - math.pi**2 * 16) < 1e-10

    def test_rejects_bad_radius(self, space1):
        with pytest.raises(ValueError):
            ball_volume(space1, 0.0)


class TestHeisPointValidation:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            HeisPoint((1.0, 2.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HeisPoint((1.0, math.nan, 0.0))
        with pytest.raises(ValueError):
            HeisPoint((math.inf, 0.0, 0.0))

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heishardy.geometry import (
    GeometryReport,
    dilate_array,
    group_mul_array,
    heis_distance,
    heis_space,
    koranyi_norm_array,
    run_geometry_checks,
    sphere_project_array,
)

from _oracles import omega_closed_form

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
point3 = st.tuples(coord, coord, coord).map(np.array)


def pt3(a, b, c):
    return np.array([a, b, c], dtype=float)


class TestGroupLaw:
    def test_hand_evaluated_product(self):
        assert group_mul_array(pt3(1, 0, 0), pt3(0, 1, 0)).tolist() == [1.0, 1.0, -2.0]

    def test_identity_element(self):
        assert group_mul_array(pt3(0, 0, 0), pt3(0.3, -1.2, 7.0)).tolist() == [0.3, -1.2, 7.0]

    def test_non_commutativity_witness(self):
        assert group_mul_array(pt3(0, 1, 0), pt3(1, 0, 0)).tolist() == [1.0, 1.0, 2.0]

    def test_dimension_mismatch(self):
        for kernel in (group_mul_array, heis_distance):
            with pytest.raises(ValueError):
                kernel(pt3(1, 0, 0), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
            with pytest.raises(ValueError):
                kernel(np.zeros((4, 5)), pt3(1, 0, 0))
            with pytest.raises(ValueError):  # shapes that broadcast
                kernel(np.zeros(5), np.zeros(1))

    @given(point3, point3, point3)
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, x, y, z):
        lhs = group_mul_array(group_mul_array(x, y), z)
        rhs = group_mul_array(x, group_mul_array(y, z))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestInverse:
    """The inverse of x is -x."""

    def test_negation_formula(self):
        x = pt3(1, 2, 3)
        assert group_mul_array(x, -x).tolist() == [0.0, 0.0, 0.0]
        assert group_mul_array(-x, x).tolist() == [0.0, 0.0, 0.0]

    def test_origin_self_inverse(self):
        assert group_mul_array(pt3(0, 0, 0), -pt3(0, 0, 0)).tolist() == [0.0, 0.0, 0.0]

    @given(point3)
    @settings(max_examples=200, deadline=None)
    def test_defining_property(self, x):
        # the symplectic terms cancel exactly in floating point
        assert np.max(np.abs(group_mul_array(x, -x))) <= 1e-15


class TestDilation:
    def test_formula(self):
        assert dilate_array(2.0, pt3(1, 1, 1)).tolist() == [2.0, 2.0, 4.0]

    def test_identity(self):
        assert dilate_array(1.0, pt3(0.5, -3, 2)).tolist() == [0.5, -3.0, 2.0]

    def test_semigroup(self):
        out = dilate_array(0.5, dilate_array(4.0, pt3(1, 1, 1)))
        assert out.tolist() == [2.0, 2.0, 4.0]

    @given(point3, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_gauge_homogeneity(self, x, r):
        nx = koranyi_norm_array(x)
        if nx < 1e-6:
            return
        assert abs(koranyi_norm_array(dilate_array(r, x)) - r * nx) <= 1e-12 * r * nx


class TestKoranyiNorm:
    def test_horizontal_point(self):
        assert abs(koranyi_norm_array(pt3(1, 1, 0)) - math.sqrt(2)) < 1e-15

    def test_center_point(self):
        assert koranyi_norm_array(pt3(0, 0, 1)) == 1.0

    def test_origin(self):
        assert koranyi_norm_array(pt3(0, 0, 0)) == 0.0


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
            base = heis_distance(p, q)
            moved = heis_distance(group_mul_array(z, p), group_mul_array(z, q))
            mask = base > 1e-9
            rel = np.abs(moved[mask] - base[mask]) / base[mask]
            assert rel.max() <= 1e-10

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            d = 2 * n + 1
            p, x, q = (rng.uniform(-10, 10, (100_000, d)) for _ in range(3))
            d_pq, d_px, d_xq = heis_distance(p, q), heis_distance(p, x), heis_distance(x, q)
            assert int(np.sum(d_pq > d_px + d_xq + 1e-12)) == 0


class TestOnePointOrBatch:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_of_a_batch_is_the_kernel_at_that_point(self, n):
        rng = np.random.default_rng(100 + n)
        x, y = (rng.uniform(-10, 10, (64, 2 * n + 1)) for _ in range(2))
        r = rng.uniform(0.1, 10.0, 64)
        batch = (group_mul_array(x, y), group_mul_array(x, y[0]), koranyi_norm_array(x),
                 dilate_array(r, x), dilate_array(r[0], x), sphere_project_array(x),
                 heis_distance(x, y))
        for i in range(64):
            one = (group_mul_array(x[i], y[i]), group_mul_array(x[i], y[0]),
                   koranyi_norm_array(x[i]), dilate_array(r[i], x[i]), dilate_array(r[0], x[i]),
                   sphere_project_array(x[i]), heis_distance(x[i], y[i]))
            for b, o in zip(batch, one):
                assert np.shape(o) == np.shape(b)[1:]
                assert np.array_equal(b[i], o)


def _layouts(a):
    """The same values C-ordered, Fortran-ordered and as a strided view."""
    return np.ascontiguousarray(a), np.asfortranarray(a), np.repeat(a, 2, axis=-1)[..., ::2]


class TestLayoutIndependence:
    """Kernels add coordinates left to right, so their bits do not depend on memory layout."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_three_layouts_give_the_same_bits(self, n):
        rng = np.random.default_rng(200 + n)
        x, y = (rng.uniform(-10, 10, (2_000, 2 * n + 1)) for _ in range(2))
        r = rng.uniform(0.1, 10.0, 2_000)
        c_order, *others = ((group_mul_array(a, b), koranyi_norm_array(a), heis_distance(a, b),
                             sphere_project_array(a), dilate_array(r, a))
                            for a, b in zip(_layouts(x), _layouts(y)))
        for other in others:
            for ref, out in zip(c_order, other):
                assert np.array_equal(ref, out)

    def test_product_keeps_the_coordinate_major_order(self):
        x, y = (np.asfortranarray(np.ones((10, 5))) for _ in range(2))
        assert group_mul_array(x, y).flags.f_contiguous
        assert dilate_array(2.0, x).flags.f_contiguous


class TestShapeValidation:
    """n comes from the last axis, which must be odd and at least 3."""

    @pytest.mark.parametrize("d", [0, 1, 2, 4])
    def test_rejects_bad_last_axis(self, d):
        for x in (np.zeros(d), np.zeros((5, d))):
            for kernel in (koranyi_norm_array, sphere_project_array,
                           lambda x: group_mul_array(x, x), lambda x: dilate_array(2.0, x),
                           lambda x: heis_distance(x, x)):
                with pytest.raises(ValueError):
                    kernel(x)


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
                           ("mc_volume_stderrs", 5.5)]:
            rep = self._report(**{field: bad})
            assert not rep.all_pass, field
            assert [row["pass"] for row in rep.rows()].count(False) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_volume_row_fails_a_two_percent_error(self, n):
        # 100_000 candidates, geom-check's default --mc-count; z is 5.7 to 13.0 here
        space = heis_space(n)
        wrong = dataclasses.replace(space, unit_ball_lebesgue=1.02 * space.unit_ball_lebesgue)
        rep = run_geometry_checks(wrong, triples=10, mc_count=100_000, seed=3)
        assert [row["check"] for row in rep.rows() if not row["pass"]] == ["mc_volume_stderrs"]


# run_geometry_checks(heis_space(n), triples=20_000, mc_count=1_000, seed=7), as float.hex
GOLDEN_REPORTS = {
    1: dict(max_associativity_error="0x1.0000000000000p-43", max_inverse_error="0x0.0p+0",
            max_gauge_homogeneity_relerr="0x1.f666e211182b6p-52",
            max_left_invariance_relerr="0x1.cf6d23cbcc22fp-46",
            triangle_worst_slack="-0x1.1cb1f838b4000p-10",
            mc_volume_estimate="0x1.3dad878549444p+2", mc_volume_expected="0x1.3bd3cc9be45dep+2",
            mc_volume_stderrs="0x1.6af80e142b388p-2"),
    2: dict(max_associativity_error="0x1.0000000000000p-42", max_inverse_error="0x0.0p+0",
            max_gauge_homogeneity_relerr="0x1.daff8d32eed23p-52",
            max_left_invariance_relerr="0x1.1791214fb94d5p-48",
            triangle_worst_slack="-0x1.1a45401ae5d00p-4",
            mc_volume_estimate="0x1.a73569374b9c9p+2", mc_volume_expected="0x1.a51a6625307d3p+2",
            mc_volume_stderrs="0x1.c9f25c5bfee3fp-3"),
    3: dict(max_associativity_error="0x1.4000000000000p-42", max_inverse_error="0x0.0p+0",
            max_gauge_homogeneity_relerr="0x1.ee5d654f74f6bp-52",
            max_left_invariance_relerr="0x1.b450c4dd310c7p-51",
            triangle_worst_slack="-0x1.b0a95730c7e60p-1",
            mc_volume_estimate="0x1.98c968901984bp+2", mc_volume_expected="0x1.85a2e8c290824p+2",
            mc_volume_stderrs="0x1.dc5d09104b6eep+0"),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_REPORTS))
def test_geometry_report_bits_are_pinned(n):
    rep = run_geometry_checks(heis_space(n), triples=20_000, mc_count=1_000, seed=7)
    assert rep.triangle_violations == 0
    assert {field: getattr(rep, field).hex() for field in GOLDEN_REPORTS[n]} == GOLDEN_REPORTS[n]


def test_traced_peak_is_flat_in_the_batch_size(traced_peak):
    # the suite runs in blocks of rows, so no temporary grows with triples or mc_count
    peak = traced_peak(lambda: run_geometry_checks(heis_space(6), triples=200_000,
                                                   mc_count=200_000, seed=1))
    assert peak <= 4 << 20

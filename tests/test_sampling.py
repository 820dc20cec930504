import math
import re
import tracemalloc

import numpy as np
import pytest

from heishardy import geometry, quadrature
from heishardy.geometry import (
    _gaussian_rows,
    _stream,
    _stream_at,
    dilate_array,
    heis_space,
    koranyi_norm_array,
    run_geometry_checks,
    sphere_project_array,
)
from heishardy.quadrature import (
    SamplingBudgetError,
    exact_ball_sample,
    mc_ball_sample,
    mc_sphere_sample,
)

# two-sided 1% critical value for the Kolmogorov-Smirnov statistic
KS_CRIT_1PCT = 1.62762


def binomial_stderrs(est_rate, true_rate, attempts):
    se = math.sqrt(true_rate * (1.0 - true_rate) / attempts)
    return abs(est_rate - true_rate) / se


def gaussian_rows_reference(count, k, seed, tag):
    """k normals and one uniform on [-1, 1) per row, Box-Muller over one whole draw of _stream(seed, tag)."""
    h = (k + 1) // 2
    w = _stream(seed, tag).random((count, 2 * h + 1))
    rad, ang = np.sqrt(-2.0 * np.log1p(-w[:, :h])), 2.0 * math.pi * w[:, h:2 * h]
    return np.hstack([rad * np.cos(ang), rad * np.sin(ang)])[:, :k], 2.0 * w[:, -1] - 1.0


def box_stream_reference(space, count, seed, budget):
    """mc_ball_sample recomputed one candidate row at a time from its documented stream.

    Candidates are the rows of _stream(seed, _BOX_TAG), 2n+1 uniforms u each
    mapped to 2u - 1, and point i is the i-th accepted row.  Returns the
    points accepted, the candidates read, and the first point whose run (the
    candidates after the previous acceptance) reaches `budget` rejections,
    where reading stops, or None once all count points are filled.  Rows are
    gauge-tested 1,000 at a time: a row's gauge does not depend on its batch.
    """
    rng, points, attempts, run = _stream(seed, quadrature._BOX_TAG), [], 0, 0
    while True:
        rows = np.array([rng.random(space.dim) * 2.0 - 1.0 for _ in range(1000)])
        for row, inside in zip(rows, koranyi_norm_array(rows) <= 1.0):
            if len(points) == count:
                return np.array(points), attempts, None
            if run == budget:
                return np.array(points), attempts, len(points)
            attempts += 1
            if inside:
                points.append(row)
                run = 0
            else:
                run += 1


def budget_message(i, count, budget, read):
    """The SamplingBudgetError text for point i, the acceptance over the candidates read."""
    return re.escape(f"point {i} of {count} unfilled after {budget} rounds (acceptance {i / read:.3g})")


# the bench's batch size at each n; n = 6 runs out of rounds by design
BENCH_COUNTS = {1: 20_000, 2: 20_000, 3: 5_000, 4: 1_000, 5: 100, 6: 100}


class TestBallSampler:
    def test_determinism_bitwise(self, space1):
        a = mc_ball_sample(space1, 5000, 42)
        b = mc_ball_sample(space1, 5000, 42)
        assert np.array_equal(a.coords, b.coords)
        assert a.acceptance_rate == b.acceptance_rate

    def test_prefix_stability_across_counts(self, space1):
        # index i's point depends only on (seed, i): prefixes must agree
        big = mc_ball_sample(space1, 20_000, 9)
        small = mc_ball_sample(space1, 1_000, 9)
        assert np.array_equal(big.coords[:1_000], small.coords)

    def test_all_points_inside_ball(self, space2):
        batch = mc_ball_sample(space2, 50_000, 3)
        assert np.max(batch.radii()) <= 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_acceptance_rate_measures_lebesgue_volume(self, n):
        # the rejection rate estimates Lebesgue(ball) / 2^(2n+1), which
        # equals omega_big / 2^Q
        space = heis_space(n)
        batch = mc_ball_sample(space, 1_000_000, 2024)
        true_rate = space.unit_ball_lebesgue / 2.0**space.dim
        assert binomial_stderrs(batch.acceptance_rate, true_rate, batch.attempts) <= 3.0

    def test_coordinate_means_vanish(self, space1):
        batch = mc_ball_sample(space1, 200_000, 5)
        means = batch.coords.mean(axis=0)
        stderrs = batch.coords.std(axis=0, ddof=1) / math.sqrt(len(batch))
        assert np.all(np.abs(means) <= 3.0 * stderrs)

    def test_radial_cdf_power_law(self, space1):
        # P(|x|_h <= r) = r^Q for the uniform ball law
        batch = mc_ball_sample(space1, 400_000, 17)
        frac_half = np.mean(batch.radii() <= 0.5)
        assert binomial_stderrs(frac_half, 2.0**-space1.q, len(batch)) <= 3.0

    def test_radial_ks_statistic(self, space1):
        batch = mc_ball_sample(space1, 100_000, 23)
        radii = np.sort(batch.radii())
        n = len(radii)
        cdf = radii**space1.q
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        d_stat = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
        assert d_stat * math.sqrt(n) <= KS_CRIT_1PCT

    def test_radius_angle_independence(self, space1):
        batch = mc_ball_sample(space1, 100_000, 31)
        radii = batch.radii()
        theta = dilate_array(1.0 / radii, batch.coords)
        for stat in (theta[:, 0], np.sign(theta[:, 0]), theta[:, 2]):
            corr = np.corrcoef(radii, stat)[0, 1]
            assert abs(corr) <= 3.0 / math.sqrt(len(batch))

    def test_measure_scaling_under_dilation(self, space1):
        # |delta_r E| = r^Q |E|: the dilated ball's Monte Carlo volume
        # scales by r^Q exactly (same sample, scaled box)
        batch = mc_ball_sample(space1, 500_000, 12)
        r = 1.7
        vol_unit = batch.acceptance_rate * 2.0**space1.dim
        dilated = dilate_array(r, batch.coords)
        # dilated points fill delta_r(B); their bounding box is the dilated box
        assert np.max(koranyi_norm_array(dilated)) <= r * (1 + 1e-12)
        vol_scaled_expected = r**space1.q * space1.unit_ball_lebesgue
        est = vol_unit * r**space1.q
        se = r**space1.q * 2.0**space1.dim * math.sqrt(
            (space1.unit_ball_lebesgue / 2.0**space1.dim)
            * (1 - space1.unit_ball_lebesgue / 2.0**space1.dim) / batch.attempts
        )
        assert abs(est - vol_scaled_expected) <= 3.0 * se

    def test_rejects_bad_count(self, space1):
        with pytest.raises(ValueError):
            mc_ball_sample(space1, 0, 1)

    def test_runs_out_of_rounds_at_n6(self):
        # box acceptance 1.5e-4: 100 points outlast the 10,000 rounds
        with pytest.raises(SamplingBudgetError):
            mc_ball_sample(heis_space(6), 100, 7)

    @pytest.mark.parametrize("n, count, block", [(1, 300, None), (3, 60, None), (5, 12, None),
                                                  (2, 20_000, 4096)])
    def test_points_follow_the_block_layout_bitwise(self, monkeypatch, n, count, block):
        # a _BLOCK of 4096 reads the n = 2 batch in 24 blocks instead of 48
        if block is not None:
            monkeypatch.setattr(quadrature, "_BLOCK", block)
        space = heis_space(n)
        batch = mc_ball_sample(space, count, 41)
        want, attempts, failed = box_stream_reference(space, count, 41, quadrature._MC_ROUNDS)
        assert failed is None and batch.coords.flags.f_contiguous
        assert np.array_equal(batch.coords, want) and batch.attempts == attempts

    @pytest.mark.parametrize("budget", [3, 7])
    def test_budget_cuts_the_last_block_short(self, monkeypatch, space2, budget):
        # acceptance 0.2 at n = 2: some run of the first block passes either budget,
        # and the raise names the first such point, not the block's open run
        _, read, failed = box_stream_reference(space2, 50, 8, budget)
        assert failed is not None and 0 < failed < 50
        monkeypatch.setattr(quadrature, "_MC_ROUNDS", budget)
        with pytest.raises(SamplingBudgetError, match=budget_message(failed, 50, budget, read)):
            mc_ball_sample(space2, 50, 8)

    def test_the_longest_run_sets_the_least_budget_that_fills(self, monkeypatch, space2):
        # a run of exactly budget - 1 rejections passes; the rest of the last block,
        # past the 50th acceptance, belongs to no run
        budget = next(b for b in range(1, 1000) if box_stream_reference(space2, 50, 8, b)[2] is None)
        want, attempts, _ = box_stream_reference(space2, 50, 8, budget)
        _, read, failed = box_stream_reference(space2, 50, 8, budget - 1)
        monkeypatch.setattr(quadrature, "_MC_ROUNDS", budget)
        batch = mc_ball_sample(space2, 50, 8)
        assert np.array_equal(batch.coords, want) and batch.attempts == attempts
        monkeypatch.setattr(quadrature, "_MC_ROUNDS", budget - 1)
        with pytest.raises(SamplingBudgetError, match=budget_message(failed, 50, budget - 1, read)):
            mc_ball_sample(space2, 50, 8)

    @pytest.mark.parametrize("count", [100, 10_000])
    def test_raises_at_the_first_unfillable_point(self, gauge_rows, count):
        # the raise comes at the end of the block holding the run's _MC_ROUNDS-th
        # rejection, whatever the count; at seed 7 that is point 0's run, and its
        # rate, with no point before it, reads acceptance 0
        space = heis_space(6)
        _, read, i = box_stream_reference(space, count, 7, quadrature._MC_ROUNDS)
        with pytest.raises(SamplingBudgetError, match=budget_message(i, count, quadrature._MC_ROUNDS, read)):
            mc_ball_sample(space, count, 7)
        assert read <= gauge_rows["rows"] <= read + quadrature._BLOCK - 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_past_the_last_acceptance_stay_under_a_block(self, gauge_rows, n):
        # rows tested past each point's acceptance were a third of all (47,034 for
        # 32,573 kept at n = 1, seed 7); the stream leaves only its last block's tail
        batch = mc_ball_sample(heis_space(n), BENCH_COUNTS[n], 7)
        assert batch.attempts <= gauge_rows["rows"] <= batch.attempts + quadrature._BLOCK - 1

    @pytest.mark.parametrize("n, count", [(1, 20_000), (3, 1_000), (5, 100)])
    def test_prefix_and_chunking_invariance(self, monkeypatch, n, count):
        # each count spans more than one block of 7 rows and more than one of 4096
        space = heis_space(n)
        big = mc_ball_sample(space, count, 13)
        assert np.array_equal(big.coords[:10], mc_ball_sample(space, 10, 13).coords)
        for block in (7, 4096):
            monkeypatch.setattr(quadrature, "_BLOCK", block)
            reblocked = mc_ball_sample(space, count, 13)
            assert np.array_equal(reblocked.coords, big.coords) and reblocked.attempts == big.attempts

    @pytest.mark.parametrize("n, count", [(3, 20_000), (4, 2_000), (5, 200)])
    def test_acceptance_rate_at_higher_n(self, n, count):
        # 5 sigma, as the bench checks: a fixed-seed false alarm below 1e-6
        space = heis_space(n)
        batch = mc_ball_sample(space, count, 2024 + n)
        true_rate = space.unit_ball_lebesgue / 2.0**space.dim
        assert binomial_stderrs(batch.acceptance_rate, true_rate, batch.attempts) <= 5.0

    @pytest.mark.parametrize("n", sorted(BENCH_COUNTS))
    def test_traced_peak_stays_under_3mb(self, n):
        space = heis_space(n)
        tracemalloc.start()
        try:
            mc_ball_sample(space, BENCH_COUNTS[n], 7)
        except SamplingBudgetError:
            assert n == 6
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 3e6


class TestSphereSampler:
    def test_unit_norm_to_tolerance(self, space1):
        batch = mc_sphere_sample(space1, 50_000, 8)
        assert np.max(np.abs(batch.radii() - 1.0)) <= 1e-12

    def test_total_mass_is_omega_small(self, space2):
        # the estimator omega_small * mean(1) is exact by construction
        batch = mc_sphere_sample(space2, 100, 1)
        assert space2.omega_small * np.mean(np.ones(len(batch))) == space2.omega_small

    def test_sign_symmetric_mean_vanishes(self, space1):
        batch = mc_sphere_sample(space1, 200_000, 19)
        vals = batch.coords[:, 0]
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 3.0 * se

    def test_determinism(self, space1):
        a = mc_sphere_sample(space1, 2000, 77)
        b = mc_sphere_sample(space1, 2000, 77)
        assert np.array_equal(a.coords, b.coords)
        # the ball batch is coordinate-major, so the projection reads contiguous columns
        assert a.coords.flags.f_contiguous

    def test_seed_changes_batch(self, space1):
        a = mc_sphere_sample(space1, 2000, 77)
        b = mc_sphere_sample(space1, 2000, 78)
        assert not np.array_equal(a.coords, b.coords)


class TestExactBallSampler:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_law_of_the_gauge_ball(self, n):
        space = heis_space(n)
        pts = exact_ball_sample(space, 100_000, 1000 + n)
        assert pts.shape == (100_000, space.dim)
        radii = koranyi_norm_array(pts)
        assert np.max(radii) <= 1.0 + 1e-12  # rounding of |z|^4 + t^2 = 1 at the rim
        # P(|x|_h <= r) = r^Q, so half the points lie inside radius 2^(-1/Q)
        assert binomial_stderrs(np.mean(radii <= 2.0 ** (-1.0 / space.q)), 0.5, len(pts)) <= 3.0
        # the horizontal coordinates' sum and t are odd statistics
        for stat in (pts[:, :-1].sum(axis=1), pts[:, -1]):
            assert abs(stat.mean()) <= 3.0 * stat.std(ddof=1) / math.sqrt(len(stat))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cylinder_volume_estimate(self, n):
        # run_geometry_checks rejects from B^{2n} x [-1, 1]; its z-score
        # against the closed-form Lebesgue volume is the statistic
        rep = run_geometry_checks(heis_space(n), triples=10, seed=2000 + n, mc_count=100_000)
        assert rep.mc_volume_expected == heis_space(n).unit_ball_lebesgue
        assert rep.mc_volume_stderrs <= 3.0

    @pytest.mark.parametrize("n", [1, 6])
    def test_determinism_and_prefix_stability(self, n):
        space = heis_space(n)
        big = exact_ball_sample(space, 20_000, 9)
        assert np.array_equal(big, exact_ball_sample(space, 20_000, 9))
        assert np.array_equal(big[:1_000], exact_ball_sample(space, 1_000, 9))
        assert not np.array_equal(big[:1_000], exact_ball_sample(space, 1_000, 10))

    @pytest.mark.parametrize("n", [1, 6])
    def test_batch_is_coordinate_major(self, n):
        # the row-major form the sampler returned before, built from the same stream
        space = heis_space(n)
        pts = exact_ball_sample(space, 1_000, 3)
        g, t = gaussian_rows_reference(1_000, 3 * n + 3, 3, quadrature._BALL_TAG)
        a, b = np.sum(g[:, 2 * n:3 * n] ** 2, axis=1), np.sum(g[:, 3 * n:] ** 2, axis=1)
        u = a / (a + b)
        z = g[:, :2 * n] * (u**0.25 / np.linalg.norm(g[:, :2 * n], axis=1))[:, None]
        assert pts.flags.f_contiguous
        assert np.array_equal(pts, np.column_stack([z, t * np.sqrt(1.0 - u)]))

    def test_rejects_bad_count(self, space1):
        with pytest.raises(ValueError):
            exact_ball_sample(space1, 0, 1)
        with pytest.raises(ValueError):
            run_geometry_checks(space1, triples=10, mc_count=0, seed=0)
        for triples in (0, -1):
            with pytest.raises(ValueError, match="triples must be >= 1"):
                run_geometry_checks(space1, triples=triples, mc_count=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 5])
    def test_seed_is_taken_mod_2_64(self, space1, seed):
        kw = dict(triples=100, mc_count=1000)
        assert run_geometry_checks(space1, seed=seed, **kw) == run_geometry_checks(
            space1, seed=seed + 2**64, **kw)
        assert np.array_equal(exact_ball_sample(space1, 100, seed),
                              exact_ball_sample(space1, 100, seed + 2**64))
        box, wrapped = mc_ball_sample(space1, 100, seed), mc_ball_sample(space1, 100, seed + 2**64)
        assert np.array_equal(box.coords, wrapped.coords) and box.attempts == wrapped.attempts

    def test_numpy_integer_seeds_draw_the_python_int_stream(self, space1):
        want = exact_ball_sample(space1, 100, 5)
        for seed in (np.int64(5), np.uint64(5)):
            assert np.array_equal(exact_ball_sample(space1, 100, seed), want)
        with pytest.raises(TypeError):
            exact_ball_sample(space1, 100, 5.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_sphere_moment_matches_box_sampler(self, n):
        space = heis_space(n)
        exact = sphere_project_array(exact_ball_sample(space, 200_000, 32))[:, -1] ** 2
        box = mc_sphere_sample(space, 200_000, 31).coords[:, -1] ** 2
        se = math.hypot(exact.std(ddof=1), box.std(ddof=1)) / math.sqrt(200_000)
        assert abs(exact.mean() - box.mean()) <= 3.0 * se


class TestBlocks:
    """The Monte Carlo kernels run in blocks of geometry._BLOCK rows; no bit depends on it."""

    @pytest.mark.parametrize("n", [1, 6])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, n):
        # 250 triples and 333 points fill no whole number of blocks of 7 or 64 rows
        space = heis_space(n)
        kw = dict(triples=250, mc_count=333, seed=4)
        report, batch = run_geometry_checks(space, **kw), exact_ball_sample(space, 333, 4)
        for block in (1, 7, 64):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            assert run_geometry_checks(space, **kw) == report
            assert np.array_equal(exact_ball_sample(space, 333, 4), batch)

    @pytest.mark.parametrize("count, block", [(1, 2048), (1_000, 7), (4_097, 2048)])
    def test_blocks_are_the_rows_of_one_whole_draw(self, monkeypatch, count, block):
        monkeypatch.setattr(geometry, "_BLOCK", block)
        blocks = list(_gaussian_rows(count, 9, 3, 0x43594C))
        assert [len(t) for _, t in blocks[:-1]] == [block] * (len(blocks) - 1)
        want_g, want_t = gaussian_rows_reference(count, 9, 3, 0x43594C)
        assert np.array_equal(np.concatenate([g for g, _ in blocks]), want_g)
        assert np.array_equal(np.concatenate([t for _, t in blocks]), want_t)

    @pytest.mark.parametrize("k", [0, 5, 6, 7, 1001, 4_096])
    def test_positioned_stream_reads_on_from_its_offset(self, k):
        # offsets 0, 1, 2, 3 and 1 mod 4: advance() moves in steps of 4 doubles
        whole = _stream(8, 0x47454F).random(k + 50)
        assert np.array_equal(_stream_at(8, 0x47454F, k).random(50), whole[k:])

    def test_exact_batch_peak_is_its_output_plus_a_block(self, traced_peak):
        space = heis_space(6)
        peak = traced_peak(lambda: exact_ball_sample(space, 200_000, 1))
        assert peak <= 200_000 * space.dim * 8 + (2 << 20)

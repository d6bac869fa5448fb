import tracemalloc

import numpy as np
import pytest

import ovalbound as ob
from ovalbound.bounds import DELTA_MARGIN, MAX_GRID, b1, b2, dual_use_delta_bound, g_factor
from ovalbound.errors import DomainError

HALF_PI = 0.5 * np.pi
G_AT_HALF_PI = (2.0 + np.sqrt(2.0)) ** -2.0       # cot(pi/8) = sqrt(2) + 1
CRUDE_BOUND = (3.0 + 2.0 * np.sqrt(2.0)) / 8.0
#: min over delta of min over nu_tilde of max(B1, B2), as the search finds it at tol 1e-9
INFMAX = 0.8245683950493948


class TestGFactor:
    def test_vanishes_at_origin(self):
        assert g_factor(1e-12) < 1e-6

    def test_half_pi_closed_form(self):
        assert g_factor(HALF_PI - 1e-13) == pytest.approx(G_AT_HALF_PI, abs=1e-12)

    def test_one_eighteenth_at_level_set_corner(self):
        delta_min = 4.0 * np.arctan(1.0 / (3.0 * np.sqrt(2.0) - 1.0))
        assert g_factor(delta_min) == pytest.approx(1.0 / 18.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.3, HALF_PI, 2.0):
            with pytest.raises(DomainError):
                g_factor(bad)


class TestB1:
    def test_unit_at_zero_nu(self, rng):
        for delta in rng.uniform(1e-6, HALF_PI - 1e-6, 20):
            assert b1(0.0, delta) == 1.0

    def test_crude_corner_value(self):
        assert b1(1.0, HALF_PI - 1e-13) == pytest.approx(CRUDE_BOUND, abs=1e-12)

    def test_level_set_value(self, rng):
        delta_min = 4.0 * np.arctan(1.0 / (3.0 * np.sqrt(2.0) - 1.0))
        for delta in rng.uniform(delta_min, HALF_PI - 1e-9, 20):
            nu = 1.0 / (18.0 * g_factor(delta))
            assert b1(nu, delta) == pytest.approx(0.81, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            b1(-0.01, 1.0)
        with pytest.raises(DomainError):
            b1(1.01, 1.0)


class TestB2:
    def test_zero_nu_small_delta_limit(self):
        # sec^2(0) = 1, so the bracket is 1 and the value is 1 - 3/4
        assert b2(0.0, 1e-9) == pytest.approx(0.25, abs=1e-12)

    def test_equivalent_grouping(self, rng):
        # 2 + 2*nu*G - nu regrouped as 2 + nu*(2G - 1)
        for _ in range(50):
            nu = rng.uniform(0.0, 1.0)
            delta = rng.uniform(1e-6, HALF_PI - 1e-6)
            g = g_factor(delta)
            sec2 = 1.0 / np.cos(delta / 2.0) ** 2
            regrouped = 1.0 - (2.0 - sec2) * (1.0 - (2.0 + nu * (2.0 * g - 1.0)) ** -2.0)
            assert b2(nu, delta) == pytest.approx(regrouped, abs=1e-14)
        assert b2(1.0, np.pi / 3) == pytest.approx(
            1.0 - (2.0 - 1.0 / np.cos(np.pi / 6) ** 2)
            * (1.0 - (1.0 + 2.0 * g_factor(np.pi / 3)) ** -2.0), abs=1e-14)


class TestDualUse:
    def test_vanishes_at_max_nu(self):
        assert dual_use_delta_bound(HALF_PI, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_nu_half_pi(self):
        assert dual_use_delta_bound(0.0, HALF_PI - 1e-13) == \
            pytest.approx(np.pi * G_AT_HALF_PI, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dual_use_delta_bound(-0.1, 1.0)
        with pytest.raises(DomainError):
            dual_use_delta_bound(2.0, 1.0)


class TestOptimizeInfmax:
    def test_value_and_crossing(self):
        surface = ob.optimize_infmax()
        assert abs(surface.value - 0.8246) < 5e-4
        assert 0.82 < surface.value < 0.83
        for tol in (1e-6, 1e-7, 1e-9, 1e-12):
            surface = ob.optimize_infmax(n_coarse=64, refine_tol=tol)
            assert abs(surface.value - INFMAX) <= 1e-12
            assert abs(b1(*surface.argmin) - b2(*surface.argmin)) <= 1e-12

    def test_certificate_over_grid(self):
        surface = ob.optimize_infmax(n_coarse=128, refine_tol=1e-6)
        nu, delta = np.meshgrid(surface.nu_grid, surface.delta_grid, indexing="ij")
        assert surface.coarse_min == np.min(np.maximum(b1(nu, delta), b2(nu, delta)))
        assert surface.coarse_min >= surface.value - 1e-6

    # the search reads nothing of the coarse grid, so at one tol every grid
    # gives the same value, argmin and levels_used, bit for bit
    @pytest.mark.parametrize("tol, value, argmin, levels", [
        (1e-9, INFMAX, (0.8217991974743443, 1.275505701365497), 45),
        (1e-6, 0.8245683950494015, (0.8217991209516128, 1.2755057751092986), 30)],
        ids=["1e-09", "1e-06"])
    @pytest.mark.parametrize("grid", [64, 97, 512, 1535, 2048])
    def test_blockwise_scan_keeps_results(self, grid, tol, value, argmin, levels):
        surface = ob.optimize_infmax(n_coarse=grid, refine_tol=tol)
        assert (surface.value, surface.argmin, surface.levels_used) == (value, argmin, levels)

    def test_crossing_has_one_minimum(self):
        # min over nu_tilde of max(B1, B2) on 10^4 deltas, by a bisection on
        # B1 > B2 run on all of them at once through the public b1 and b2
        deltas = np.linspace(DELTA_MARGIN, HALF_PI - DELTA_MARGIN, 10_000)
        lo, hi = np.zeros_like(deltas), np.ones_like(deltas)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = b1(mid, deltas) > b2(mid, deltas)
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        values = np.minimum(*(np.maximum(b1(nu, deltas), b2(nu, deltas)) for nu in (lo, hi)))
        slopes = np.sign(np.diff(values))
        slopes = slopes[slopes != 0.0]
        assert np.count_nonzero((slopes[:-1] < 0.0) & (slopes[1:] > 0.0)) == 1
        assert ob.optimize_infmax(n_coarse=64, refine_tol=1e-9).value <= values.min()

    def test_tiny_tol_terminates(self):
        # the bracket cannot shrink below the spacing of doubles near the
        # minimum; the search stops once its inner points stop moving
        surface = ob.optimize_infmax(n_coarse=64, refine_tol=1e-300)
        assert surface.levels_used < 100 and surface.value == INFMAX

    def test_export_that_reads_one_block(self):
        # the blocks an export leaves unread are still scanned
        read = []
        part = ob.optimize_infmax(n_coarse=97, export=lambda axes, blocks: read.append(next(blocks)))
        whole = ob.optimize_infmax(n_coarse=97)
        assert (part.coarse_min, part.argmin, part.value) == \
            (whole.coarse_min, whole.argmin, whole.value)
        assert [b.shape for b in read[0]] == [(MAX_GRID // 97, 97)] * 3

    def test_zero_nu_line_is_one(self):
        # b1(0, delta) = 1 dominates everywhere on that line
        deltas = np.linspace(1e-6, HALF_PI - 1e-6, 500)
        line = np.maximum(b1(np.zeros_like(deltas), deltas),
                          b2(np.zeros_like(deltas), deltas))
        assert np.min(line) == pytest.approx(1.0, abs=1e-15)

    def test_coarse_run_close_to_refined(self):
        coarse = ob.optimize_infmax(n_coarse=64, refine_tol=1e-3)
        refined = ob.optimize_infmax()
        assert abs(coarse.value - refined.value) < 2e-3

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            ob.optimize_infmax(n_coarse=32)

    def test_grid_cap_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                ob.optimize_infmax(n_coarse=MAX_GRID + 1)
            with pytest.raises(DomainError):
                ob.optimize_infmax(n_coarse=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

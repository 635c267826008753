"""Sensitivity catalog and output-bound arithmetic."""

import math

import numpy as np
import pytest

import dpsan as d


class TestAttributeBounds:
    def test_width(self):
        assert d.AttributeBounds(-3.0, 3.0).width == 6.0

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            d.AttributeBounds(1.0, 1.0)
        with pytest.raises(ValueError):
            d.AttributeBounds(2.0, -2.0)
        with pytest.raises(ValueError):
            d.AttributeBounds(0.0, math.inf)
        with pytest.raises(ValueError):
            d.AttributeBounds(math.nan, 1.0)


class TestCatalog:
    def test_proportion(self):
        assert d.gs_catalog("proportion", 100) == 0.01
        got = d.gs_catalog("proportion", np.int64(100))
        assert got == 0.01 and type(got) is float

    def test_mean(self):
        assert d.gs_catalog("mean", 50, d.AttributeBounds(-3.0, 3.0)) == 6.0 / 50.0

    def test_variance(self):
        assert d.gs_catalog("variance", 50, d.AttributeBounds(-3.0, 3.0)) == 36.0 / 50.0

    def test_covariance(self):
        got = d.gs_catalog("covariance", 50, d.AttributeBounds(-3.0, 3.0), d.AttributeBounds(-4.5, 4.5))
        assert got == 6.0 * 9.0 / 50.0

    def test_shrinks_with_n(self):
        b = d.AttributeBounds(0.0, 1.0)
        assert d.gs_catalog("mean", 200, b) < d.gs_catalog("mean", 100, b)

    def test_rejects_wrong_bound_counts(self):
        b = d.AttributeBounds(0.0, 1.0)
        with pytest.raises(ValueError):
            d.gs_catalog("proportion", 100, b)
        with pytest.raises(ValueError):
            d.gs_catalog("mean", 100)
        with pytest.raises(ValueError):
            d.gs_catalog("covariance", 100, b)
        with pytest.raises(ValueError):
            d.gs_catalog("variance", 100, b, b)
        # a plain pair is no AttributeBounds, for the catalog or the output range
        with pytest.raises(ValueError, match="must be AttributeBounds"):
            d.gs_catalog("mean", 10, (0.0, 1.0))
        with pytest.raises(ValueError, match="must be AttributeBounds"):
            d.variance_output_bounds(10, (0.0, 1.0))

    def test_rejects_unknown_kind_and_tiny_n(self):
        with pytest.raises(ValueError):
            d.gs_catalog("median", 100)
        with pytest.raises(ValueError):
            d.gs_catalog("proportion", 1)
        with pytest.raises(ValueError):
            d.gs_catalog("proportion", 100.0)


class TestVarianceOutputBounds:
    def test_minimal_sample(self):
        # n = 2 on a unit-width attribute: spread tops out at 1/2 per point
        assert d.variance_output_bounds(2, d.AttributeBounds(0.0, 0.5)) == (0.0, 0.125)
        assert d.variance_output_bounds(np.int64(2), d.AttributeBounds(0.0, 0.5)) == (0.0, 0.125)

    def test_frozen_study_value(self):
        got = d.variance_output_bounds(50, d.AttributeBounds(-3.0, 3.0))
        assert got[0] == 0.0
        assert got[1] == 1800.0 / 196.0  # 50 w^2 / (4 * 49), correctly rounded

    def test_approaches_quarter_width_squared(self):
        b = d.AttributeBounds(0.0, 1.0)
        hi = d.variance_output_bounds(10_000, b)[1]
        assert hi == pytest.approx(0.25, abs=1e-4)
        assert hi > 0.25  # the n/(n-1) factor keeps it strictly above

    def test_upper_bound_is_attained(self):
        # half the points at each end of the interval realizes the bound
        b = d.AttributeBounds(-1.0, 1.0)
        for n in (2, 4, 10):
            x = np.array([b.c0] * (n // 2) + [b.c1] * (n - n // 2), dtype=float)
            assert np.var(x, ddof=1) == pytest.approx(d.variance_output_bounds(n, b)[1], rel=1e-12)


class TestCovarianceOutputBounds:
    def test_symmetric_interval(self):
        lo, hi = d.covariance_output_bounds(1.62, 1.0)
        assert hi == pytest.approx(1.2727922061357855, abs=1e-15)
        assert lo == -hi

    def test_zero_variance_collapses_interval(self):
        assert d.covariance_output_bounds(0.0, 5.0) == (0.0, 0.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            d.covariance_output_bounds(-1.0, 1.0)
        with pytest.raises(ValueError):
            d.covariance_output_bounds(1.0, -0.5)
        with pytest.raises(ValueError, match="must be finite"):
            d.covariance_output_bounds(math.nan, 1.0)

    def test_cauchy_schwarz_consistency(self):
        # any valid 2x2 covariance matrix lands inside the stated interval
        m = d.CovMatrix2(2.0, 0.5, -0.9)
        lo, hi = d.covariance_output_bounds(m.s11, m.s22)
        assert lo <= m.s12 <= hi

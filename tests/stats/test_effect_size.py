"""Effect-size measures: known values, symmetry, and validation."""

import math

import pytest

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.stats.effect_size import (
    EffectMagnitude,
    classify_cohen_d,
    classify_cohen_w,
    cohen_d,
    cohen_w,
    cohen_w_from_counts,
    cramers_v,
)


class TestCohenD:
    def test_unit_shift_unit_variance(self, rng):
        x = rng.normal(1.0, 1.0, 5000)
        y = rng.normal(0.0, 1.0, 5000)
        assert cohen_d(x, y) == pytest.approx(1.0, abs=0.08)

    def test_sign_convention(self):
        assert cohen_d([0.0, 1.0, 2.0], [5.0, 6.0, 7.0]) < 0
        assert cohen_d([5.0, 6.0, 7.0], [0.0, 1.0, 2.0]) > 0

    def test_antisymmetric(self, rng):
        x = rng.normal(0, 1, 40)
        y = rng.normal(1, 1, 40)
        assert cohen_d(x, y) == pytest.approx(-cohen_d(y, x))

    def test_zero_for_identical_constants(self):
        assert cohen_d([3.0, 3.0], [3.0, 3.0]) == 0.0

    def test_infinite_for_separated_constants(self):
        assert math.isinf(cohen_d([1.0, 1.0], [2.0, 2.0]))

    def test_requires_two_per_group(self):
        with pytest.raises(InsufficientDataError):
            cohen_d([1.0], [1.0, 2.0])


class TestCohenW:
    def test_zero_when_distributions_match(self):
        assert cohen_w([0.5, 0.3, 0.2], [0.5, 0.3, 0.2]) == pytest.approx(0.0)

    def test_known_value(self):
        # w = sqrt(sum((o-e)^2/e)) = sqrt((.1^2/.5)+(.1^2/.5)) = 0.2
        assert cohen_w([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.2)

    def test_from_counts_matches_probability_form(self):
        w1 = cohen_w_from_counts([60, 40], [50, 50])
        w2 = cohen_w([0.6, 0.4], [0.5, 0.5])
        assert w1 == pytest.approx(w2)

    def test_rejects_unnormalized_vectors(self):
        with pytest.raises(InvalidParameterError):
            cohen_w([0.7, 0.6], [0.5, 0.5])

    def test_rejects_zero_expected(self):
        with pytest.raises(InvalidParameterError):
            cohen_w([0.5, 0.5], [1.0, 0.0])

    def test_counts_with_empty_expected_cell_dropped(self):
        w = cohen_w_from_counts([60, 40, 0], [50, 50, 0])
        assert w == pytest.approx(0.2)


class TestCramersVAndPhi:
    def test_perfect_association(self):
        assert cramers_v([[50, 0], [0, 50]]) == pytest.approx(1.0)

    def test_no_association(self):
        assert cramers_v([[25, 25], [25, 25]]) == pytest.approx(0.0)

    def test_cramers_v_requires_2d(self):
        with pytest.raises(InvalidParameterError):
            cramers_v([[1, 2]])


class TestMagnitudeBands:
    @pytest.mark.parametrize("d,expected", [
        (0.05, EffectMagnitude.NEGLIGIBLE),
        (0.2, EffectMagnitude.SMALL),
        (0.5, EffectMagnitude.MEDIUM),
        (0.79, EffectMagnitude.MEDIUM),
        (0.8, EffectMagnitude.LARGE),
        (-1.2, EffectMagnitude.LARGE),
    ])
    def test_cohen_d_bands(self, d, expected):
        assert classify_cohen_d(d) is expected

    @pytest.mark.parametrize("w,expected", [
        (0.01, EffectMagnitude.NEGLIGIBLE),
        (0.1, EffectMagnitude.SMALL),
        (0.3, EffectMagnitude.MEDIUM),
        (0.5, EffectMagnitude.LARGE),
    ])
    def test_cohen_w_bands(self, w, expected):
        assert classify_cohen_w(w) is expected

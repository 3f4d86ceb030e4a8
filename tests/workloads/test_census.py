"""Synthetic census: schema, planted dependencies, independence controls,
equality with the label-string generator it replaced, and its build's
peak memory."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.exploration.dataset import Dataset
from repro.rng import SeedLike, as_generator
from repro.stats.tests import chi_square_independence, t_test_two_sample
from repro.workloads.census import (
    CENSUS_CATEGORICAL,
    CENSUS_NUMERIC,
    DEPENDENT_PAIRS,
    INDEPENDENT_ATTRIBUTES,
    make_census,
)


def contingency(ds, a, b):
    """Contingency table between two categorical columns."""
    rows = []
    for va in ds.categories(a):
        mask = ds.values(a) == va
        vals = ds.values(b, mask)
        rows.append([(vals == vb).sum() for vb in ds.categories(b)])
    return rows


class TestSchema:
    def test_columns_present(self, census):
        for name in CENSUS_CATEGORICAL + CENSUS_NUMERIC:
            assert name in census.column_names

    def test_categorical_typing(self, census):
        for name in CENSUS_CATEGORICAL:
            assert census.is_categorical(name)
        for name in CENSUS_NUMERIC:
            assert not census.is_categorical(name)

    def test_row_count(self):
        assert make_census(500, seed=1).n_rows == 500

    def test_reproducible(self):
        a = make_census(1000, seed=9)
        b = make_census(1000, seed=9)
        np.testing.assert_array_equal(a.values("age"), b.values("age"))
        np.testing.assert_array_equal(a.values("education"), b.values("education"))

    def test_minimum_rows_enforced(self):
        with pytest.raises(InvalidParameterError):
            make_census(50)

    def test_plausible_ranges(self, census):
        age = census.values("age")
        hours = census.values("hours_per_week")
        assert age.min() >= 18 and age.max() <= 90
        assert hours.min() >= 5 and hours.max() <= 80


class TestPlantedDependencies:
    @pytest.mark.parametrize(
        "a,b",
        [p for p in DEPENDENT_PAIRS if p[0] in CENSUS_CATEGORICAL and p[1] in CENSUS_CATEGORICAL],
    )
    def test_categorical_dependencies_significant(self, census, a, b):
        result = chi_square_independence(contingency(census, a, b))
        assert result.p_value < 1e-4, f"{a} -> {b} should be dependent"

    def test_age_marital_dependency(self, census):
        married = census.values("age", census.values("marital_status") == "Married")
        never = census.values("age", census.values("marital_status") == "Never Married")
        assert t_test_two_sample(married, never).p_value < 1e-10
        assert married.mean() > never.mean()

    def test_hours_salary_dependency(self, census):
        high = census.values("hours_per_week", census.values("salary_over_50k") == "True")
        low = census.values("hours_per_week", census.values("salary_over_50k") == "False")
        assert t_test_two_sample(high, low).p_value < 1e-6
        assert high.mean() > low.mean()

    def test_education_raises_salary(self, census):
        edu = census.values("education")
        sal = census.values("salary_over_50k") == "True"
        rate_phd = sal[edu == "PhD"].mean()
        rate_hs = sal[edu == "HS"].mean()
        assert rate_phd > rate_hs + 0.2


class TestIndependenceControls:
    @pytest.mark.parametrize("attr", INDEPENDENT_ATTRIBUTES)
    def test_independent_of_salary(self, census, attr):
        result = chi_square_independence(contingency(census, attr, "salary_over_50k"))
        assert result.p_value > 0.001, f"{attr} should be independent of salary"

    def test_race_independent_of_education(self, census):
        result = chi_square_independence(contingency(census, "race", "education"))
        assert result.p_value > 0.001


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def string_census(n_rows: int = 30_000, seed: SeedLike = 0) -> Dataset:
    """``make_census`` as it was when it drew label strings (the reference)."""
    if n_rows < 100:
        raise InvalidParameterError(f"n_rows must be >= 100, got {n_rows}")
    rng = as_generator(seed)

    sex = rng.choice(["Male", "Female", "Other"], size=n_rows, p=[0.485, 0.495, 0.02])
    age = np.clip(18.0 + rng.gamma(shape=4.5, scale=5.5, size=n_rows), 18.0, 90.0)

    education = rng.choice(
        ["HS", "Bachelor", "Master", "PhD"], size=n_rows, p=[0.42, 0.33, 0.17, 0.08]
    )
    edu_rank = np.select(
        [education == "HS", education == "Bachelor", education == "Master"],
        [0.0, 1.0, 2.0],
        default=3.0,
    )

    # Occupation depends on education: higher degrees shift mass towards
    # professional/managerial roles.
    occupations = np.array(["Service", "Admin", "Technical", "Professional", "Managerial"])
    base = np.array([0.30, 0.28, 0.18, 0.14, 0.10])
    shift = np.array([-0.06, -0.04, 0.01, 0.05, 0.04])
    occupation = np.empty(n_rows, dtype=object)
    for rank in range(4):
        weights = np.clip(base + rank * shift, 0.01, None)
        weights = weights / weights.sum()
        idx = edu_rank == rank
        occupation[idx] = rng.choice(occupations, size=int(idx.sum()), p=weights)
    occupation = occupation.astype(str)

    # Marital status depends on age.
    p_married = _sigmoid((age - 32.0) / 8.0) * 0.75
    p_widowed = np.clip((age - 55.0) / 200.0, 0.0, 0.15)
    p_never = np.clip(0.8 - (age - 18.0) / 60.0, 0.05, 0.8)
    p_not = np.clip(1.0 - p_married - p_widowed - p_never, 0.02, None)
    probs = np.stack([p_married, p_never, p_not, p_widowed], axis=1)
    probs = probs / probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(n_rows)[:, None]
    marital_idx = (draws > cum).sum(axis=1)
    marital_status = np.array(["Married", "Never Married", "Not Married", "Widowed"])[
        marital_idx
    ]

    # Hours depend on occupation and sex.
    occ_bonus = np.select(
        [occupation == "Managerial", occupation == "Professional"], [5.0, 3.0], default=0.0
    )
    hours = np.clip(
        rng.normal(37.0 + occ_bonus + 2.0 * (sex == "Male"), 8.0, size=n_rows), 5.0, 80.0
    )

    # Salary depends on education, sex, age (concave) and hours.
    logit = (
        -2.2
        + 0.9 * edu_rank
        + 0.55 * (sex == "Male")
        + 0.035 * (age - 40.0)
        - 0.0011 * (age - 40.0) ** 2
        + 0.035 * (hours - 40.0)
    )
    salary_over_50k = np.where(rng.random(n_rows) < _sigmoid(logit), "True", "False")

    # Independent attributes: no relationship with anything above.
    race = rng.choice(
        ["GroupA", "GroupB", "GroupC", "GroupD", "GroupE"],
        size=n_rows,
        p=[0.55, 0.2, 0.12, 0.08, 0.05],
    )
    workclass = rng.choice(["Private", "Government", "SelfEmployed"], size=n_rows,
                           p=[0.7, 0.16, 0.14])
    native_region = rng.choice(
        ["North", "South", "East", "West", "Abroad"],
        size=n_rows,
        p=[0.3, 0.28, 0.2, 0.15, 0.07],
    )

    return Dataset(
        {
            "sex": sex,
            "age": age,
            "education": education,
            "marital_status": marital_status,
            "occupation": occupation,
            "hours_per_week": hours,
            "race": race,
            "workclass": workclass,
            "native_region": native_region,
            "salary_over_50k": salary_over_50k,
        },
        categorical=CENSUS_CATEGORICAL,
        name="synthetic-census",
    )


def _typed(categories: tuple) -> list:
    return [(type(c), c) for c in categories]


class TestMatchesStringGenerator:
    """The index-drawn census is the label-drawn one, bit for bit."""

    @pytest.mark.parametrize("n_rows,seed", [(2_000, 0), (20_000, 5), (100_000, 7),
                                             (100, 12)])
    def test_columns_equal(self, n_rows, seed):
        new, ref = make_census(n_rows, seed), string_census(n_rows, seed)
        assert new.column_names == ref.column_names
        for name in CENSUS_CATEGORICAL:
            assert _typed(new.categories(name)) == _typed(ref.categories(name)), name
            assert new.codes(name).dtype == ref.codes(name).dtype == np.int32
            np.testing.assert_array_equal(new.codes(name), ref.codes(name))
        for name in CENSUS_NUMERIC:
            a, b = new.values(name), ref.values(name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_small_table_lacks_categories(self):
        """At (100, 12) some labels are never drawn, so the lookup table
        maps a label list that is not the category table."""
        census = make_census(100, 12)
        assert len(census.categories("sex")) == 2
        assert len(census.categories("marital_status")) == 3


def test_build_peak_memory_is_bounded():
    """numpy reports its buffers to tracemalloc, so the build's peak is a
    deterministic multiple of the columns it returns."""
    tracemalloc.start()
    try:
        census = make_census(200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column_bytes = (sum(census.codes(n).nbytes for n in CENSUS_CATEGORICAL)
                    + sum(census.values(n).nbytes for n in CENSUS_NUMERIC))
    assert peak <= 5 * column_bytes, peak / column_bytes

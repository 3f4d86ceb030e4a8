"""Synthetic census data standing in for the UCI Adult dataset (Exp. 2).

The paper's real-workflow experiment runs 115 user-study hypotheses over
the Census dataset [25].  That dataset cannot be fetched offline and the
user-study logs were never published, so — per the substitution rule in
DESIGN.md §4 — we generate a census table with *planted* dependencies
mirroring the well-known Adult correlations:

* salary_over_50k depends on education, sex, age and hours_per_week;
* marital_status depends on age;
* occupation depends on education;
* hours_per_week depends on occupation and sex;

while race, workclass and native_region are independent of everything.
This gives the experiment what it actually needs: a realistic mixture of
truly-dependent and truly-independent attribute pairs, a full-data ground
truth, and down-sampling behaviour.  ``Dataset.permute_columns`` produces
the paper's "randomized Census" global-null control.

Every categorical column is drawn as indices into a label table, and
every dependency is computed from those indices, so building a
1M-row table never makes a per-row label string; the served dataset is
bit-identical to drawing the labels themselves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.exploration.dataset import Dataset, Encoded
from repro.rng import SeedLike, as_generator

__all__ = [
    "make_census",
    "CENSUS_CATEGORICAL",
    "CENSUS_NUMERIC",
    "DEPENDENT_PAIRS",
    "INDEPENDENT_ATTRIBUTES",
]

#: Categorical columns of the synthetic census.
CENSUS_CATEGORICAL: tuple[str, ...] = (
    "sex",
    "education",
    "marital_status",
    "occupation",
    "race",
    "workclass",
    "native_region",
    "salary_over_50k",
)

#: Numeric columns of the synthetic census.
CENSUS_NUMERIC: tuple[str, ...] = ("age", "hours_per_week")

#: Attribute pairs with a planted dependency (ground truth for sanity tests).
DEPENDENT_PAIRS: tuple[tuple[str, str], ...] = (
    ("education", "salary_over_50k"),
    ("sex", "salary_over_50k"),
    ("age", "salary_over_50k"),
    ("hours_per_week", "salary_over_50k"),
    ("age", "marital_status"),
    ("education", "occupation"),
    ("occupation", "hours_per_week"),
    ("sex", "hours_per_week"),
)

#: Attributes generated independently of everything else.
INDEPENDENT_ATTRIBUTES: tuple[str, ...] = ("race", "workclass", "native_region")


# Label tables: each column is drawn as indices into its table.
_SEX = ("Male", "Female", "Other")
_EDUCATION = ("HS", "Bachelor", "Master", "PhD")  # an index is the degree's rank
_OCCUPATION = ("Service", "Admin", "Technical", "Professional", "Managerial")
_MARITAL = ("Married", "Never Married", "Not Married", "Widowed")
_SALARY = ("True", "False")
_RACE = ("GroupA", "GroupB", "GroupC", "GroupD", "GroupE")
_WORKCLASS = ("Private", "Government", "SelfEmployed")
_REGION = ("North", "South", "East", "West", "Abroad")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _marital_status(rng: np.random.Generator, age: np.ndarray) -> np.ndarray:
    """Draw marital status indices, which depend on age.

    A function of its own, so that its per-row probability tables are
    freed before the dataset is encoded.
    """
    p_married = _sigmoid((age - 32.0) / 8.0) * 0.75
    p_widowed = np.clip((age - 55.0) / 200.0, 0.0, 0.15)
    p_never = np.clip(0.8 - (age - 18.0) / 60.0, 0.05, 0.8)
    p_not = np.clip(1.0 - p_married - p_widowed - p_never, 0.02, None)
    probs = np.stack([p_married, p_never, p_not, p_widowed], axis=1)
    probs = probs / probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(len(age))[:, None]
    return (draws > cum).sum(axis=1)


def make_census(n_rows: int = 30_000, seed: SeedLike = 0) -> Dataset:
    """Generate the synthetic census table.

    The causal generation order (sex, age → education → occupation →
    marital/hours → salary) makes every dependency listed in
    :data:`DEPENDENT_PAIRS` real and everything involving
    :data:`INDEPENDENT_ATTRIBUTES` null.  Each categorical column reaches
    :class:`Dataset` as :class:`~repro.exploration.dataset.Encoded`
    indices into its label table.
    """
    if n_rows < 100:
        raise InvalidParameterError(f"n_rows must be >= 100, got {n_rows}")
    rng = as_generator(seed)

    sex = rng.choice(len(_SEX), size=n_rows, p=[0.485, 0.495, 0.02])
    male = sex == 0  # "Male"
    age = np.clip(18.0 + rng.gamma(shape=4.5, scale=5.5, size=n_rows), 18.0, 90.0)

    edu_rank = rng.choice(len(_EDUCATION), size=n_rows, p=[0.42, 0.33, 0.17, 0.08])

    # Occupation depends on education: higher degrees shift mass towards
    # professional/managerial roles.
    base = np.array([0.30, 0.28, 0.18, 0.14, 0.10])
    shift = np.array([-0.06, -0.04, 0.01, 0.05, 0.04])
    occupation = np.empty(n_rows, dtype=np.intp)
    for rank in range(len(_EDUCATION)):
        weights = np.clip(base + rank * shift, 0.01, None)
        weights = weights / weights.sum()
        idx = edu_rank == rank
        occupation[idx] = rng.choice(len(_OCCUPATION), size=int(idx.sum()), p=weights)

    marital_status = _marital_status(rng, age)

    # Hours depend on occupation (Managerial, Professional) and sex.
    occ_bonus = np.select([occupation == 4, occupation == 3], [5.0, 3.0], default=0.0)
    hours = np.clip(
        rng.normal(37.0 + occ_bonus + 2.0 * male, 8.0, size=n_rows), 5.0, 80.0
    )

    # Salary depends on education, sex, age (concave) and hours.
    logit = (
        -2.2
        + 0.9 * edu_rank
        + 0.55 * male
        + 0.035 * (age - 40.0)
        - 0.0011 * (age - 40.0) ** 2
        + 0.035 * (hours - 40.0)
    )
    salary_over_50k = np.where(rng.random(n_rows) < _sigmoid(logit), 0, 1)  # "True": 0

    # Independent attributes: no relationship with anything above.
    race = rng.choice(len(_RACE), size=n_rows, p=[0.55, 0.2, 0.12, 0.08, 0.05])
    workclass = rng.choice(len(_WORKCLASS), size=n_rows, p=[0.7, 0.16, 0.14])
    native_region = rng.choice(len(_REGION), size=n_rows, p=[0.3, 0.28, 0.2, 0.15, 0.07])

    return Dataset(
        {
            "sex": Encoded(_SEX, sex),
            "age": age,
            "education": Encoded(_EDUCATION, edu_rank),
            "marital_status": Encoded(_MARITAL, marital_status),
            "occupation": Encoded(_OCCUPATION, occupation),
            "hours_per_week": hours,
            "race": Encoded(_RACE, race),
            "workclass": Encoded(_WORKCLASS, workclass),
            "native_region": Encoded(_REGION, native_region),
            "salary_over_50k": Encoded(_SALARY, salary_over_50k),
        },
        categorical=CENSUS_CATEGORICAL,
        name="synthetic-census",
    )

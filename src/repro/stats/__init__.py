"""Statistical substrate: what each AWARE panel and its gauge compute.

Every AWARE gesture needs a hypothesis test behind its panel, an effect
size for the gauge, and the ``n_H1`` "how much more data" annotation:

* :mod:`repro.stats.distributions` — Normal, Student-t and chi-squared
  distribution objects built directly on ``scipy.special`` primitives.
* :mod:`repro.stats.tests` — the chi-square and t-tests AWARE runs behind
  visualizations (Sec. 2.1, 2.3 of the paper), and the z-statistic wrapper
  behind the Exp. 1 synthetic streams.
* :mod:`repro.stats.effect_size` — Cohen's *d*/*w*, Cramér's V and the
  magnitude labels shown in the AWARE gauge (Fig. 2).
* :mod:`repro.stats.power` — the paper's ``n_H1`` estimates (Sec. 3) and
  the Sec. 4.1 hold-out power comparison.
* :mod:`repro.stats.descriptive` — the pooled variance.
"""

from repro.stats.descriptive import pooled_variance
from repro.stats.distributions import ChiSquared, Normal, StudentT
from repro.stats.effect_size import (
    EffectMagnitude,
    classify_cohen_d,
    classify_cohen_w,
    cohen_d,
    cohen_w,
    cohen_w_from_counts,
    cramers_v,
)
from repro.stats.power import (
    extra_data_to_accept,
    extra_data_to_reject,
    holdout_combined_power,
    power_t_test_two_sample,
)
from repro.stats.tests import (
    TestFamily,
    TestResult,
    chi_square_gof,
    chi_square_independence,
    chi_square_two_sample,
    t_test_two_sample,
    z_test_from_statistic,
)

__all__ = [
    "ChiSquared",
    "EffectMagnitude",
    "Normal",
    "StudentT",
    "TestFamily",
    "TestResult",
    "chi_square_gof",
    "chi_square_independence",
    "chi_square_two_sample",
    "classify_cohen_d",
    "classify_cohen_w",
    "cohen_d",
    "cohen_w",
    "cohen_w_from_counts",
    "cramers_v",
    "extra_data_to_accept",
    "extra_data_to_reject",
    "holdout_combined_power",
    "pooled_variance",
    "power_t_test_two_sample",
    "t_test_two_sample",
    "z_test_from_statistic",
]

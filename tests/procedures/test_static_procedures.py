"""Static baselines: PCER, Bonferroni family, stepwise, BH/BY/Storey."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.procedures.base import apply_to_stream
from repro.procedures.bonferroni import (
    Bonferroni,
    SequentialBonferroni,
    Sidak,
    bonferroni_mask,
    sidak_mask,
)
from repro.procedures.fdr import (
    BenjaminiHochberg,
    StoreyBH,
    benjamini_hochberg_mask,
    benjamini_yekutieli_mask,
    storey_pi0_estimate,
)
from repro.procedures.pcer import PCER, pcer_mask
from repro.procedures.stepwise import hochberg_mask, holm_mask


class TestPCER:
    def test_mask_is_raw_threshold(self):
        mask = pcer_mask([0.01, 0.05, 0.06], alpha=0.05)
        assert mask.tolist() == [True, True, False]

    def test_streaming_matches_mask(self, rng):
        p = rng.uniform(size=50)
        streamed = apply_to_stream(PCER(0.05), p)
        assert np.array_equal(streamed, pcer_mask(p, 0.05))

    def test_decisions_are_immutable_records(self):
        proc = PCER(0.05)
        d = proc.test(0.01)
        assert d.rejected and d.level == 0.05 and d.index == 0
        proc.test(0.9)
        assert proc.decisions[0] == d


class TestBonferroniFamily:
    def test_bonferroni_threshold(self):
        mask = bonferroni_mask([0.004, 0.006, 0.2, 0.9, 0.001], alpha=0.025)
        # threshold = 0.025/5 = 0.005
        assert mask.tolist() == [True, False, False, False, True]

    def test_sidak_slightly_more_liberal(self):
        p = [0.0102]
        # m=5: bonferroni 0.01, sidak 1-(0.95)^(1/5) ~ 0.01021
        assert not bonferroni_mask(p * 5, alpha=0.05)[0]
        assert sidak_mask(p * 5, alpha=0.05)[0]

    def test_empty_input(self):
        assert bonferroni_mask([], 0.05).size == 0
        assert sidak_mask([], 0.05).size == 0

    def test_classes_match_functions(self, rng):
        p = rng.uniform(size=20)
        assert np.array_equal(Bonferroni(0.05).decide(p), bonferroni_mask(p, 0.05))
        assert np.array_equal(Sidak(0.05).decide(p), sidak_mask(p, 0.05))

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            Bonferroni(alpha=0.0)
        with pytest.raises(InvalidParameterError):
            Bonferroni(alpha=1.0)


class TestSequentialBonferroni:
    def test_levels_halve(self):
        proc = SequentialBonferroni(alpha=0.05)
        levels = [proc.test(1.0).level for _ in range(5)]
        assert levels == pytest.approx([0.025, 0.0125, 0.00625, 0.003125, 0.0015625])

    def test_levels_sum_to_at_most_alpha(self):
        proc = SequentialBonferroni(alpha=0.05)
        total = sum(proc.test(1.0).level for _ in range(200))
        assert total <= 0.05 + 1e-12  # geometric series sums to alpha

    def test_power_collapses_with_index(self):
        proc = SequentialBonferroni(alpha=0.05)
        for _ in range(30):
            proc.test(1.0)
        # After 30 tests the threshold is alpha * 2^-31 ~ 2.3e-11: even a
        # p-value of 1e-8 — overwhelming evidence — can no longer reject.
        assert not proc.test(1e-8).rejected
        assert proc.test(1e-12).rejected

    def test_ratio_validation(self):
        with pytest.raises(InvalidParameterError):
            SequentialBonferroni(ratio=1.0)


class TestStepwise:
    def test_holm_dominates_bonferroni(self, rng):
        for _ in range(20):
            p = rng.uniform(size=15) ** 2
            holm = holm_mask(p, 0.05)
            bonf = bonferroni_mask(p, 0.05)
            assert np.all(holm | ~bonf)  # bonf rejected => holm rejected

    def test_hochberg_dominates_holm(self, rng):
        for _ in range(20):
            p = rng.uniform(size=15) ** 2
            assert np.all(hochberg_mask(p, 0.05) | ~holm_mask(p, 0.05))

    def test_holm_known_example(self):
        # Classic example: p = (.01, .04, .03, .005), m=4, alpha=.05
        # sorted: .005 <= .0125, .01 <= .0167, .03 > .025 stop.
        mask = holm_mask([0.01, 0.04, 0.03, 0.005], 0.05)
        assert mask.tolist() == [True, False, False, True]

    def test_hochberg_known_example(self):
        # p sorted: .005,.01,.03,.04 ; from top: .04 > .05/1? no: k=4 thr=.05;
        # .04 <= .05 -> reject all.
        mask = hochberg_mask([0.01, 0.04, 0.03, 0.005], 0.05)
        assert mask.tolist() == [True, True, True, True]


class TestBenjaminiHochberg:
    def test_known_example(self):
        # BH at alpha=.05 on sorted p: .001,.008,.039,.041,.042,.06,.074,.205
        # thresholds k/8*.05: .00625,.0125,.01875,.025,.03125,.0375,.04375,.05
        # largest k passing: k=5? .042 > .03125; k=4: .041 > .025; k=3: .039>.01875
        # k=2: .008 <= .0125 -> reject two smallest.
        p = [0.041, 0.008, 0.039, 0.001, 0.042, 0.06, 0.074, 0.205]
        mask = benjamini_hochberg_mask(p, 0.05)
        assert mask.tolist() == [False, True, False, True, False, False, False, False]

    def test_bh_dominates_bonferroni(self, rng):
        for _ in range(20):
            p = rng.uniform(size=25) ** 2
            assert np.all(benjamini_hochberg_mask(p, 0.05) | ~bonferroni_mask(p, 0.05))

    def test_by_more_conservative_than_bh(self, rng):
        for _ in range(20):
            p = rng.uniform(size=25) ** 2
            assert np.all(benjamini_hochberg_mask(p, 0.05) | ~benjamini_yekutieli_mask(p, 0.05))

    def test_rejections_form_prefix_of_sorted(self, rng):
        p = rng.uniform(size=30)
        mask = benjamini_hochberg_mask(p, 0.2)
        rejected = np.sort(p[mask])
        accepted = np.sort(p[~mask])
        if rejected.size and accepted.size:
            assert rejected[-1] <= accepted[0]

    def test_empty_input(self):
        assert benjamini_hochberg_mask([], 0.05).size == 0

    def test_class_form(self, rng):
        p = rng.uniform(size=12)
        assert np.array_equal(
            BenjaminiHochberg(0.05).decide(p), benjamini_hochberg_mask(p, 0.05)
        )


class TestStorey:
    def test_pi0_near_one_under_global_null(self, rng):
        p = rng.uniform(size=5000)
        assert storey_pi0_estimate(p) == pytest.approx(1.0, abs=0.05)

    def test_pi0_small_with_many_effects(self):
        p = np.concatenate([np.full(80, 1e-6), np.linspace(0.01, 1, 20)])
        assert storey_pi0_estimate(p) < 0.3

    def test_adaptive_bh_at_least_as_powerful(self, rng):
        p = np.concatenate([rng.uniform(0, 1e-4, 40), rng.uniform(size=60)])
        plain = benjamini_hochberg_mask(p, 0.05).sum()
        adaptive = StoreyBH(0.05).decide(p).sum()
        assert adaptive >= plain

    def test_lambda_validation(self):
        with pytest.raises(InvalidParameterError):
            storey_pi0_estimate([0.5], lam=1.0)

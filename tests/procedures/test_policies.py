"""The five investing rules: budget algebra and stateful behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.procedures.alpha_investing.policies import (
    BestFootForward,
    BetaFarsighted,
    DeltaHopeful,
    EpsilonHybrid,
    GammaFixed,
    PsiSupport,
)
from repro.procedures.alpha_investing.wealth import WealthLedger


def fresh_ledger(alpha=0.05):
    return WealthLedger(alpha=alpha)


class TestBetaFarsighted:
    def test_budget_formula(self):
        ledger = fresh_ledger()
        policy = BetaFarsighted(beta=0.25)
        w = ledger.wealth
        spend = w * 0.75
        assert policy.desired_budget(ledger, 0, 1.0) == pytest.approx(
            min(0.05, spend / (1 + spend))
        )

    def test_acceptance_preserves_beta_fraction(self):
        """Investing Rule 1 line 7: W(j) = beta * W(j-1) when unclamped."""
        ledger = fresh_ledger()
        policy = BetaFarsighted(beta=0.5)
        for _ in range(10):
            before = ledger.wealth
            budget = policy.desired_budget(ledger, 0, 1.0)
            ledger.settle(budget, rejected=False)
            assert ledger.wealth == pytest.approx(0.5 * before, rel=1e-9)

    def test_thrifty_never_exhausts(self):
        ledger = fresh_ledger()
        policy = BetaFarsighted(beta=0.25)
        for _ in range(500):
            budget = policy.desired_budget(ledger, 0, 1.0)
            assert budget > 0
            assert ledger.can_afford(budget)
            ledger.settle(budget, rejected=False)
        assert ledger.wealth > 0

    def test_clamped_at_alpha(self):
        ledger = WealthLedger(alpha=0.01, eta=1.0)
        # Give the ledger lots of wealth via rejections.
        for _ in range(200):
            ledger.settle(0.001, rejected=True)
        policy = BetaFarsighted(beta=0.0)
        assert policy.desired_budget(ledger, 0, 1.0) == pytest.approx(0.01)

    def test_beta_validation(self):
        with pytest.raises(InvalidParameterError):
            BetaFarsighted(beta=1.0)
        with pytest.raises(InvalidParameterError):
            BetaFarsighted(beta=-0.1)

    def test_best_foot_forward_is_beta_zero(self):
        ledger = fresh_ledger()
        assert BestFootForward().desired_budget(ledger, 0, 1.0) == pytest.approx(
            BetaFarsighted(beta=0.0).desired_budget(ledger, 0, 1.0)
        )


class TestGammaFixed:
    def test_constant_budget(self):
        ledger = fresh_ledger()
        policy = GammaFixed(gamma=10.0)
        w0 = ledger.initial_wealth
        expected = w0 / (10.0 + w0)
        budgets = []
        for _ in range(5):
            b = policy.desired_budget(ledger, 0, 1.0)
            budgets.append(b)
            if ledger.can_afford(b):
                ledger.settle(b, rejected=False)
        assert all(b == pytest.approx(expected) for b in budgets)

    def test_acceptance_charges_w0_over_gamma(self):
        """Investing Rule 2 line 7: the charge is exactly W(0)/gamma."""
        ledger = fresh_ledger()
        policy = GammaFixed(gamma=10.0)
        before = ledger.wealth
        ledger.settle(policy.desired_budget(ledger, 0, 1.0), rejected=False)
        assert before - ledger.wealth == pytest.approx(ledger.initial_wealth / 10.0)

    def test_affords_about_gamma_tests_without_rejections(self):
        ledger = fresh_ledger()
        policy = GammaFixed(gamma=10.0)
        tests = 0
        while ledger.can_afford(policy.desired_budget(ledger, tests, 1.0)):
            ledger.settle(policy.desired_budget(ledger, tests, 1.0), rejected=False)
            tests += 1
            assert tests < 50
        assert tests == 10

    def test_gamma_validation(self):
        with pytest.raises(InvalidParameterError):
            GammaFixed(gamma=0.0)


class TestDeltaHopeful:
    def test_initial_budget_matches_gamma_form(self):
        ledger = fresh_ledger()
        policy = DeltaHopeful(delta=10.0)
        w0 = ledger.initial_wealth
        assert policy.desired_budget(ledger, 0, 1.0) == pytest.approx(
            min(0.05, w0 / (10.0 + w0))
        )

    def test_reinvests_after_rejection(self):
        """Investing Rule 3 lines 6-8: alpha* refreshed from W(k*)."""
        ledger = fresh_ledger()
        policy = DeltaHopeful(delta=10.0)
        b0 = policy.desired_budget(ledger, 0, 1.0)
        ledger.settle(b0, rejected=True)
        policy.record_outcome(ledger, 0, rejected=True)
        b1 = policy.desired_budget(ledger, 1, 1.0)
        w = ledger.wealth
        assert b1 == pytest.approx(min(0.05, w / (10.0 + w)))
        assert b1 > b0  # wealth grew, so the budget grows

    def test_budget_frozen_between_rejections(self):
        ledger = fresh_ledger()
        policy = DeltaHopeful(delta=10.0)
        b0 = policy.desired_budget(ledger, 0, 1.0)
        ledger.settle(b0, rejected=False)
        policy.record_outcome(ledger, 0, rejected=False)
        assert policy.desired_budget(ledger, 1, 1.0) == pytest.approx(b0)

    def test_reset_clears_state(self):
        ledger = fresh_ledger()
        policy = DeltaHopeful(delta=10.0)
        policy.desired_budget(ledger, 0, 1.0)
        ledger.settle(0.01, rejected=True)
        policy.record_outcome(ledger, 0, rejected=True)
        policy.reset()
        ledger.reset()
        w0 = ledger.initial_wealth
        assert policy.desired_budget(ledger, 0, 1.0) == pytest.approx(
            min(0.05, w0 / (10.0 + w0))
        )


class TestEpsilonHybrid:
    def test_starts_in_gamma_mode(self):
        ledger = fresh_ledger()
        policy = EpsilonHybrid(epsilon=0.5, gamma=10.0, delta=10.0)
        w0 = ledger.initial_wealth
        assert policy.desired_budget(ledger, 0, 1.0) == pytest.approx(w0 / (10.0 + w0))

    def test_switches_to_delta_mode_when_rejections_dominate(self):
        ledger = fresh_ledger()
        policy = EpsilonHybrid(epsilon=0.5, gamma=100.0, delta=5.0)
        # Record three rejections -> ratio 1.0 > 0.5 -> delta branch.
        for i in range(3):
            ledger.settle(0.001, rejected=True)
            policy.record_outcome(ledger, i, rejected=True)
        w_star = ledger.wealth
        assert policy.desired_budget(ledger, 3, 1.0) == pytest.approx(
            min(0.05, w_star / (5.0 + w_star))
        )

    def test_sliding_window_forgets_old_rejections(self):
        ledger = fresh_ledger()
        policy = EpsilonHybrid(epsilon=0.5, gamma=10.0, delta=10.0, window=2)
        ledger.settle(0.001, rejected=True)
        policy.record_outcome(ledger, 0, rejected=True)
        assert policy.rejection_ratio() == 1.0
        for i in (1, 2):
            ledger.settle(0.001, rejected=False)
            policy.record_outcome(ledger, i, rejected=False)
        assert policy.rejection_ratio() == 0.0  # window of 2 holds two accepts

    def test_unlimited_window_default(self):
        policy = EpsilonHybrid()
        assert policy.window is None

    @given(window=st.none() | st.integers(1, 50),
           events=st.lists(st.sampled_from([True, False, "reset"]),
                           max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_running_ratio_equals_the_windowed_sum(self, window, events):
        """The running rejection count gives exactly the ratio that summing
        the window's outcomes gives, so every decision stays the same."""
        ledger = fresh_ledger()
        policy = EpsilonHybrid(window=window)
        seen: list[bool] = []
        for index, event in enumerate(events):
            if event == "reset":
                policy.reset()
                seen = []
            else:
                policy.record_outcome(ledger, index, rejected=event)
                seen.append(event)
            kept = seen if window is None else seen[-window:]
            expected = sum(kept) / len(kept) if kept else 0.0
            assert policy.rejection_ratio() == expected

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            EpsilonHybrid(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            EpsilonHybrid(window=0)


class TestPsiSupport:
    def test_full_support_matches_gamma_fixed(self):
        ledger = fresh_ledger()
        psi = PsiSupport(psi=0.5, gamma=10.0)
        gamma = GammaFixed(gamma=10.0)
        assert psi.desired_budget(ledger, 0, 1.0) == pytest.approx(
            gamma.desired_budget(ledger, 0, 1.0)
        )

    def test_sqrt_scaling(self):
        ledger = fresh_ledger()
        policy = PsiSupport(psi=0.5, gamma=10.0)
        full = policy.desired_budget(ledger, 0, 1.0)
        quarter = policy.desired_budget(ledger, 0, 0.25)
        assert quarter == pytest.approx(full * 0.5)

    def test_psi_exponent(self):
        ledger = fresh_ledger()
        policy = PsiSupport(psi=2.0, gamma=10.0)
        full = policy.desired_budget(ledger, 0, 1.0)
        half = policy.desired_budget(ledger, 0, 0.5)
        assert half == pytest.approx(full * 0.25)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PsiSupport(psi=0.0)
        with pytest.raises(InvalidParameterError):
            PsiSupport(gamma=-1.0)

"""The AWARE session: tracking, superseding, revisions, bookmarks, gauge."""

import math

import pytest

from repro.errors import InvalidParameterError, SessionError
from repro.exploration.hypotheses import HypothesisStatus
from repro.exploration.predicate import Eq, Not
from repro.exploration.session import ExplorationSession
from repro.exploration.visualization import Visualization, chain
from repro.stats.tests import t_test_two_sample


@pytest.fixture()
def session(census):
    return ExplorationSession(census, procedure="gamma-fixed", alpha=0.05)


class TestShow:
    def test_unfiltered_panel_is_descriptive(self, session):
        result = session.show("sex")
        assert not result.is_hypothesis
        assert result.histogram.support == session.dataset.n_rows

    def test_filtered_panel_tracks_rule2(self, session):
        result = session.show("sex", where=Eq("salary_over_50k", "True"))
        assert result.is_hypothesis
        hyp = result.hypothesis
        assert hyp.kind == "rule2-distribution-shift"
        assert hyp.decision is not None
        assert 0 < hyp.support_fraction <= 1

    def test_descriptive_flag_suppresses_tracking(self, session):
        result = session.show(
            "sex", where=Eq("salary_over_50k", "True"), descriptive=True
        )
        assert not result.is_hypothesis
        assert session.procedure.num_tested == 0

    def test_rule3_supersedes_rule2(self, session):
        session.show("sex", where=Eq("salary_over_50k", "True"))
        result = session.show("sex", where=Not(Eq("salary_over_50k", "True")))
        assert result.hypothesis.kind == "rule3-two-sample"
        history = session.history()
        assert history[0].status is HypothesisStatus.SUPERSEDED
        assert history[0].superseded_by == result.hypothesis.hypothesis_id
        # Only the rule-3 hypothesis remains in the stream.
        assert len(session.active_hypotheses()) == 1

    def test_where_with_visualization_rejected(self, session):
        with pytest.raises(InvalidParameterError):
            session.show(Visualization("sex"), where=Eq("education", "PhD"))

    def test_numeric_attribute_binned_consistently(self, session):
        r1 = session.show("age", where=Eq("education", "PhD"))
        r2 = session.show("age", where=Eq("education", "HS"))
        assert r1.histogram.labels == r2.histogram.labels


class TestEveWalkthrough:
    """The full Sec. 2 example on the synthetic census."""

    def test_steps_a_through_f(self, census):
        session = ExplorationSession(census, procedure="epsilon-hybrid", alpha=0.05)
        # A: gender distribution — descriptive.
        a = session.show("sex")
        assert not a.is_hypothesis
        # B: gender | salary>50k — rule-2 hypothesis m1.
        b = session.show("sex", where=Eq("salary_over_50k", "True"))
        assert b.hypothesis.kind == "rule2-distribution-shift"
        # C: gender | not salary>50k next to B — m1' supersedes m1.
        c = session.show("sex", where=Not(Eq("salary_over_50k", "True")))
        assert c.hypothesis.kind == "rule3-two-sample"
        # D: marital | PhD — m2.
        d = session.show("marital_status", where=Eq("education", "PhD"))
        assert d.hypothesis.kind == "rule2-distribution-shift"
        # E: salary | PhD & not married — m3.
        e = session.show(
            chain(
                "salary_over_50k",
                Eq("education", "PhD"),
                Not(Eq("marital_status", "Married")),
            )
        )
        assert e.hypothesis.kind == "rule2-distribution-shift"
        # F: explicit age comparison, overridden to a mean test (m4 -> m4').
        viz_hi = chain(
            "age",
            Eq("education", "PhD"),
            Not(Eq("marital_status", "Married")),
            Eq("salary_over_50k", "True"),
        )
        viz_lo = chain(
            "age",
            Eq("education", "PhD"),
            Not(Eq("marital_status", "Married")),
            Not(Eq("salary_over_50k", "True")),
        )
        f = session.compare(viz_hi, viz_lo)
        report = session.override_with_means(f.hypothesis_id)
        assert report.revised_id == f.hypothesis_id
        final = session.history()[-1]
        assert final.kind == "override"
        assert final.result.name == "welch-t-test"
        # The gauge renders the whole story.
        text = session.gauge().render()
        assert "alpha-wealth" in text and "mean" in text


class TestRevisions:
    def test_delete_removes_from_stream(self, session):
        session.show("sex", where=Eq("salary_over_50k", "True"))
        hyp = session.show("race", where=Eq("workclass", "Private")).hypothesis
        report = session.delete(hyp.hypothesis_id)
        assert report.revised_id == hyp.hypothesis_id
        assert session.history()[-1].status is HypothesisStatus.DELETED
        assert len(session.active_hypotheses()) == 1

    def test_delete_twice_rejected(self, session):
        hyp = session.show("sex", where=Eq("salary_over_50k", "True")).hypothesis
        session.delete(hyp.hypothesis_id)
        with pytest.raises(SessionError):
            session.delete(hyp.hypothesis_id)

    def test_deleting_early_hypothesis_can_change_later_ones(self, census):
        """Deleting a rejected hypothesis removes its omega payout; a later
        hypothesis that lived off that wealth can flip (Sec. 3 semantics)."""
        session = ExplorationSession(census, procedure="gamma-fixed", alpha=0.05)
        first = session.show("sex", where=Eq("salary_over_50k", "True")).hypothesis
        assert first.rejected
        # Burn most wealth on nulls, then delete the rejection.
        for _ in range(3):
            session.show("race", where=Eq("workclass", "Private"), descriptive=False)
        report = session.delete(first.hypothesis_id)
        assert isinstance(report.changed, tuple)  # may or may not flip; API holds

    def test_unknown_hypothesis_id(self, session):
        with pytest.raises(SessionError):
            session.delete(999)

    def test_never_overturn_on_append(self, census):
        session = ExplorationSession(census, procedure="delta-hopeful", alpha=0.05)
        decisions = []
        filters = [
            Eq("salary_over_50k", "True"),
            Eq("education", "PhD"),
            Eq("workclass", "Private"),
            Eq("marital_status", "Married"),
            Eq("race", "GroupB"),
        ]
        for pred in filters:
            session.show("sex", where=pred)
            decisions.append([h.rejected for h in session.active_hypotheses()])
        final = decisions[-1]
        for i, snapshot in enumerate(decisions):
            assert snapshot == final[: i + 1]


class TestBookmarks:
    def test_star_and_unstar(self, session):
        hyp = session.show("sex", where=Eq("salary_over_50k", "True")).hypothesis
        session.star(hyp.hypothesis_id)
        assert session.history()[0].starred
        assert len(session.important_discoveries()) == (1 if hyp.rejected else 0)
        session.unstar(hyp.hypothesis_id)
        assert not session.history()[0].starred

    def test_important_discoveries_only_rejected(self, session):
        accepted = session.show("race", where=Eq("workclass", "Private")).hypothesis
        assert not accepted.rejected
        session.star(accepted.hypothesis_id)
        assert session.important_discoveries() == ()


class TestGauge:
    def test_wealth_decreases_on_accepts(self, session):
        start = session.wealth
        session.show("race", where=Eq("workclass", "Private"))
        assert session.wealth < start

    def test_gauge_snapshot_fields(self, session):
        session.show("sex", where=Eq("salary_over_50k", "True"))
        gauge = session.gauge()
        assert gauge.alpha == 0.05
        assert gauge.num_tested == 1
        assert len(gauge.entries) == 1
        entry = gauge.entries[0]
        assert entry.test_name == "chi-square-gof"
        assert entry.effect_magnitude is not None
        assert not math.isnan(entry.data_to_flip)

    def test_exhaustion_surfaces(self, census):
        session = ExplorationSession(census, procedure="gamma-fixed", alpha=0.05,
                                     gamma=3.0)
        for _ in range(4):
            session.show("race", where=Eq("workclass", "Private"))
            session.show("race", where=Eq("workclass", "Government"))
        assert session.is_exhausted
        assert session.gauge().exhausted
        assert "exhausted" in session.gauge().render()


class TestExplicitTests:
    def test_record_external_test(self, session):
        from repro.stats.tests import z_test_from_statistic

        hyp = session.record_test(
            z_test_from_statistic(3.2, n_obs=500),
            null_description="no effect",
            alternative_description="effect",
        )
        assert hyp.kind == "explicit"
        assert session.procedure.num_tested == 1

    def test_compare_requires_same_attribute(self, session):
        with pytest.raises(SessionError):
            session.compare(Visualization("sex"), Visualization("age"))

    def test_compare_with_means_requires_numeric(self, session):
        a = Visualization("sex", Eq("salary_over_50k", "True"))
        b = Visualization("sex", Not(Eq("salary_over_50k", "True")))
        with pytest.raises(SessionError):
            session.compare(a, b, use_means=True)

    def test_compare_means_directly(self, session):
        a = Visualization("age", Eq("salary_over_50k", "True"))
        b = Visualization("age", Not(Eq("salary_over_50k", "True")))
        hyp = session.compare(a, b, use_means=True)
        assert hyp.result.name == "welch-t-test"

    def test_mean_tests_match_boolean_indexing_reference(self, census):
        """compare(use_means) and override_with_means gather with compress;
        the Welch results equal a t-test on boolean-indexed values."""
        session = ExplorationSession(census, procedure="beta-farsighted")
        where = Eq("salary_over_50k", "True")
        mask = where.mask(census)
        ages = census.values("age")
        expected = t_test_two_sample(ages[mask], ages[~mask])
        a = Visualization("age", where)
        b = Visualization("age", Not(where))
        assert session.compare(a, b, use_means=True).result == expected
        two_panel = session.compare(a, b)
        session.override_with_means(two_panel.hypothesis_id)
        assert session.hypothesis(two_panel.hypothesis_id).result == expected

    def test_promote_unfiltered_panel(self, session):
        hyp = session.promote(
            "sex",
            null_description="sex is uniform",
            alternative_description="sex is not uniform",
        )
        assert hyp.kind == "user-promoted"
        assert session.procedure.num_tested == 1


class TestProcedureFactoryContract:
    def test_static_procedure_name_rejected(self, census):
        with pytest.raises(InvalidParameterError):
            ExplorationSession(census, procedure="bhfdr")

    def test_callable_factory(self, census):
        from repro.procedures.alpha_investing import AlphaInvesting, GammaFixed

        session = ExplorationSession(
            census, procedure=lambda: AlphaInvesting(GammaFixed(20.0))
        )
        session.show("sex", where=Eq("salary_over_50k", "True"))
        assert session.procedure.num_tested == 1

    def test_bad_procedure_type(self, census):
        with pytest.raises(InvalidParameterError):
            ExplorationSession(census, procedure=123)

"""Cross-checks between independent implementations of the same quantity.

These tests catch silent drift between layers: the statistic-level
synthetic stream vs real data-level tests, the session's decisions vs
the bare procedure on the same p-values, and the exported snapshot vs
the live session.
"""

import json

import numpy as np
import pytest

from repro.exploration.export import session_to_dict
from repro.exploration.predicate import Eq
from repro.exploration.session import ExplorationSession
from repro.procedures.base import apply_to_stream
from repro.procedures.registry import make_procedure
from repro.workloads.synthetic import TwoSampleStreamGenerator, ZStreamGenerator


class TestStatisticVsDataLevel:
    """The Exp. 1 shortcut (z statistics) must match running real tests."""

    @pytest.mark.parametrize("null_proportion", [0.25, 0.75])
    def test_procedure_metrics_agree(self, null_proportion, rng):
        m, reps = 40, 60
        z_gen = ZStreamGenerator(m=m, null_proportion=null_proportion)
        t_gen = TwoSampleStreamGenerator(
            m=m, null_proportion=null_proportion, n_per_group=150
        )

        def avg_power(gen):
            powers = []
            for _ in range(reps):
                stream = gen.sample(rng)
                proc = make_procedure("gamma-fixed")
                mask = apply_to_stream(proc, stream.p_values)
                if stream.num_alternatives:
                    powers.append(
                        (mask & ~stream.null_mask).sum() / stream.num_alternatives
                    )
            return float(np.mean(powers))

        assert avg_power(z_gen) == pytest.approx(avg_power(t_gen), abs=0.10)


class TestSessionVsBareProcedure:
    def test_session_decisions_equal_direct_stream(self, census):
        """The session must be a faithful wrapper: same p-values into the
        same procedure give the same decisions and final wealth."""
        session = ExplorationSession(census, procedure="delta-hopeful", alpha=0.05)
        filters = [
            ("sex", Eq("salary_over_50k", "True")),
            ("marital_status", Eq("education", "PhD")),
            ("race", Eq("workclass", "Private")),
            ("sex", Eq("education", "Bachelor")),
        ]
        for target, pred in filters:
            session.show(target, where=pred)
        hyps = session.active_hypotheses()
        direct = make_procedure("delta-hopeful", alpha=0.05)
        mask = apply_to_stream(
            direct,
            [h.result.p_value for h in hyps],
            [h.support_fraction for h in hyps],
        )
        assert mask.tolist() == [h.rejected for h in hyps]
        assert direct.wealth == pytest.approx(session.wealth)

    def test_export_is_faithful_to_live_session(self, census):
        session = ExplorationSession(census, procedure="epsilon-hybrid", alpha=0.05)
        session.show("sex", where=Eq("salary_over_50k", "True"))
        session.show("race", where=Eq("workclass", "Private"))
        payload = json.loads(json.dumps(session_to_dict(session)))
        live = {h.hypothesis_id: h for h in session.history()}
        for record in payload["hypotheses"]:
            hyp = live[record["id"]]
            assert record["rejected"] == hyp.rejected
            assert record["p_value"] == pytest.approx(hyp.p_value)
            assert record["level"] == pytest.approx(hyp.decision.level)
        assert payload["wealth"] == pytest.approx(session.wealth)


class TestGaugeArithmetic:
    def test_wealth_trajectory_reconstructable_from_decisions(self, census):
        """Replaying Eq. (5) by hand over the decision log reproduces the
        ledger balance — no hidden wealth mutations anywhere."""
        session = ExplorationSession(census, procedure="gamma-fixed", alpha=0.05)
        for attr, cat in [
            ("workclass", "Private"),
            ("workclass", "Government"),
            ("race", "GroupB"),
        ]:
            session.show("sex", where=Eq(attr, cat))
        decisions = session.procedure.decisions
        wealth = session.procedure.initial_wealth
        for d in decisions:
            if d.exhausted:
                continue
            if d.rejected:
                wealth += 0.05  # omega = alpha
            else:
                wealth -= d.level / (1.0 - d.level)
        assert wealth == pytest.approx(session.wealth, abs=1e-12)

"""ElectionEngine: phase drivers, typed event ordering, legacy equivalence."""

import pytest

from repro.api import (
    AuditCompleted,
    AuditConfig,
    BallotAccepted,
    ConsensusDecided,
    ElectionCompleted,
    ElectionEngine,
    PhaseCompleted,
    PhaseStarted,
    ScenarioSpec,
    TallyComputed,
)
from repro.api.events import RecordingObserver
from repro.core.election import ElectionParameters

CHOICES = ["option-1", "option-3", "option-1", "option-2", "option-1"]


@pytest.fixture(scope="module")
def baseline_outcome():
    return ElectionEngine(ScenarioSpec.preset("paper_baseline")).run(CHOICES)


class TestEngineRun:
    def test_full_pipeline(self, baseline_outcome):
        assert baseline_outcome.tally.as_dict() == {
            "option-1": 3, "option-2": 1, "option-3": 1,
        }
        assert baseline_outcome.receipts_obtained == 5
        assert baseline_outcome.all_receipts_valid
        assert baseline_outcome.audit_report.passed

    def test_phase_timings_recorded(self, baseline_outcome):
        assert set(baseline_outcome.phase_timings) == {
            "setup", "voting", "consensus", "tally", "audit",
        }
        assert baseline_outcome.phase_timings["consensus"] > 0

    def test_choice_count_must_match_voters(self):
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        with pytest.raises(ValueError, match="one choice per voter"):
            engine.run(["option-1"])

    def test_audit_can_be_disabled(self):
        spec = ScenarioSpec.preset("paper_baseline").derive(audit=AuditConfig(enabled=False))
        outcome = ElectionEngine(spec).run(CHOICES)
        assert outcome.tally is not None
        assert outcome.audit_report is None
        assert "audit" not in outcome.phase_timings

    def test_second_run_gets_a_fresh_event_stream(self):
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        first = engine.run(CHOICES)
        second = engine.run(CHOICES)
        # begin() resets the bus: no accumulation across runs, sequences and
        # the sim clock restart from zero.
        assert len(second.events) == len(first.events)
        assert second.events[0].sequence == 0
        assert second.events[0].sim_time == 0.0

    def test_runs_are_reproducible_end_to_end(self):
        spec = ScenarioSpec.preset("paper_baseline", seed=77)
        first = ElectionEngine(spec).run(CHOICES)
        second = ElectionEngine(spec).run(CHOICES)
        # The seed threads through the EA RNG, so even the ballot serials
        # (drawn from the scenario RNG) are identical across runs.
        assert [b.serial for b in first.setup.ballots] == [
            b.serial for b in second.setup.ballots
        ]
        assert first.tally.as_dict() == second.tally.as_dict()
        assert first.phase_timings == second.phase_timings
        assert [(type(e).__name__, e.sim_time) for e in first.events] == [
            (type(e).__name__, e.sim_time) for e in second.events
        ]


class TestEventOrdering:
    def test_phases_start_in_paper_order(self, baseline_outcome):
        starts = [e.phase for e in baseline_outcome.events if isinstance(e, PhaseStarted)]
        assert starts == ["setup", "voting", "consensus", "tally", "audit"]

    def test_every_phase_completes_before_the_next_starts(self, baseline_outcome):
        open_phase = None
        for event in baseline_outcome.events:
            if isinstance(event, PhaseStarted):
                assert open_phase is None
                open_phase = event.phase
            elif isinstance(event, PhaseCompleted):
                assert event.phase == open_phase
                open_phase = None
        assert open_phase is None

    def test_events_land_inside_their_phase(self, baseline_outcome):
        current = None
        expected_phase = {
            BallotAccepted: "voting",
            ConsensusDecided: "consensus",
            TallyComputed: "tally",
            AuditCompleted: "audit",
        }
        for event in baseline_outcome.events:
            if isinstance(event, PhaseStarted):
                current = event.phase
            elif isinstance(event, PhaseCompleted):
                current = None
            elif type(event) in expected_phase:
                assert current == expected_phase[type(event)], event
        assert isinstance(baseline_outcome.events[-1], ElectionCompleted)

    def test_sequences_are_strictly_increasing(self, baseline_outcome):
        sequences = [e.sequence for e in baseline_outcome.events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_one_ballot_accepted_per_receipt(self, baseline_outcome):
        accepted = [e for e in baseline_outcome.events if isinstance(e, BallotAccepted)]
        assert len(accepted) == baseline_outcome.receipts_obtained
        assert {e.voter for e in accepted} == {
            v.node_id for v in baseline_outcome.voters if v.receipt is not None
        }
        assert all(e.receipt_valid for e in accepted)

    def test_consensus_decided_matches_vote_set(self, baseline_outcome):
        (decided,) = [e for e in baseline_outcome.events if isinstance(e, ConsensusDecided)]
        assert decided.vote_set_size == len(CHOICES)

    def test_observer_subscription(self):
        observer = RecordingObserver()
        engine = ElectionEngine(ScenarioSpec.preset("byzantine_stress"))
        engine.subscribe(observer)
        engine.run(["option-1", "option-2", "option-1", "option-1"])
        assert observer.phases() == ("setup", "voting", "consensus", "tally", "audit")
        assert observer.events == engine.events


class TestPresetEquivalence:
    """`paper_baseline` reproduces what the legacy parameter defaults produce."""

    def test_paper_baseline_matches_old_coordinator_defaults(self):
        spec = ScenarioSpec.preset("paper_baseline", seed=2024)
        new_outcome = ElectionEngine(spec).run(CHOICES)

        legacy_params = ElectionParameters.small_test_election(
            num_voters=5, num_options=3, election_end=500.0
        )
        legacy_spec = ScenarioSpec.from_election_parameters(legacy_params, seed=2024)
        old_outcome = ElectionEngine(legacy_spec).run(CHOICES)

        assert new_outcome.tally.as_dict() == old_outcome.tally.as_dict()
        assert new_outcome.audit_report.passed == old_outcome.audit_report.passed
        assert new_outcome.receipts_obtained == old_outcome.receipts_obtained
        assert sorted(new_outcome.audit_report.checks) == sorted(
            old_outcome.audit_report.checks
        )

    def test_spec_flags_reach_the_election_parameters(self):
        spec = ScenarioSpec.preset("batched_fast")
        params = ElectionEngine(spec).begin().params
        assert params.consensus_batch_size == spec.consensus.batch_size
        assert params.batch_audit is spec.audit.batch


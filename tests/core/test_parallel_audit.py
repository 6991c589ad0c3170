"""Tests for the batched/parallel end-of-election audit and tally pipeline."""

import pytest

from repro.api import ElectionEngine, ScenarioSpec
from repro.core.auditor import Auditor
from repro.core.election import ElectionParameters
from repro.core.tally import combine_tally_commitments, open_tally, open_tally_parallel
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.utils import RandomSource
from repro.perf.parallel import ParallelConfig


@pytest.fixture(scope="module")
def batch_outcome():
    """A fresh honest election whose BB state this module may tamper with."""
    params = ElectionParameters.small_test_election(
        num_voters=4, num_options=2, election_end=200.0
    )
    spec = ScenarioSpec.from_election_parameters(params, seed=13)
    choices = ["option-1", "option-2", "option-2", "option-1"]
    return ElectionEngine(spec).run(choices)


class TestVerifyAll:
    def test_batched_audit_passes_honest_election(self, batch_outcome):
        assert batch_outcome.audit_report is not None
        assert batch_outcome.audit_report.passed

    def test_batched_audit_records_phase_timings(self, batch_outcome):
        timings = batch_outcome.audit_timings
        for phase in ("read_bb", "structural", "openings", "proofs", "tally", "delegations"):
            assert phase in timings
            assert timings[phase] >= 0.0
        assert batch_outcome.audit_report.timings == timings

    def test_batched_audit_includes_tally_opening_check(self, batch_outcome):
        assert batch_outcome.audit_report.checks["h-tally-opening"] is True

    def test_batched_matches_reference_audit_verdicts(self, batch_outcome, group):
        params = batch_outcome.setup.params
        auditor = Auditor(batch_outcome.bb_nodes, params, group)
        reference = auditor.audit()
        batched = auditor.verify_all()
        assert batched.passed == reference.passed
        for name, verdict in reference.checks.items():
            assert batched.checks[name] == verdict

    def test_parallel_workers_produce_identical_report(self, batch_outcome, group):
        params = batch_outcome.setup.params
        auditor = Auditor(batch_outcome.bb_nodes, params, group)
        serial = auditor.verify_all(parallel=ParallelConfig(workers=1, chunk_size=4))
        pooled = auditor.verify_all(
            parallel=ParallelConfig(workers=2, chunk_size=4, serial_threshold=1)
        )
        assert pooled.checks == serial.checks
        assert pooled.passed

    def test_audit_before_result_reports_not_ready(self, batch_outcome, group):
        from repro.core.bulletin_board import BulletinBoardNode

        params = batch_outcome.setup.params
        fresh = [
            BulletinBoardNode(f"bb-{i}", batch_outcome.setup.bb_init, params, group)
            for i in range(params.thresholds.num_bb)
        ]
        report = Auditor(fresh, params, group).verify_all()
        assert not report.passed
        assert report.checks["bb-ready"] is False
        assert "read_bb" in report.timings


class TestTamperDetection:
    """Tampering must be flagged with the exact culprit ballot named."""

    @pytest.fixture()
    def tampered_outcome(self):
        params = ElectionParameters.small_test_election(
            num_voters=4, num_options=2, election_end=200.0
        )
        spec = ScenarioSpec.from_election_parameters(params, seed=17)
        return ElectionEngine(spec).run(["option-1", "option-1", "option-2", "option-2"])

    def test_corrupted_opening_is_located(self, tampered_outcome, group):
        serial = part = None
        for node in tampered_outcome.bb_nodes:
            key = sorted(node.result.openings)[0]
            serial, part = key
            openings = list(node.result.openings[key])
            openings[0] = CommitmentOpening(
                openings[0].values, tuple(r + 1 for r in openings[0].randomness)
            )
            node.result.openings[key] = tuple(openings)
        params = tampered_outcome.setup.params
        report = Auditor(tampered_outcome.bb_nodes, params, group).verify_all()
        assert not report.passed
        assert report.checks["d-valid-openings"] is False
        assert any(
            f"ballot {serial} part {part}" in failure
            for failure in report.failures
            if failure.startswith("d-valid-openings")
        )

    def test_truncated_openings_flagged_incomplete(self, tampered_outcome, group):
        """Publishing fewer openings than ballot rows must not silently skip
        the missing rows (checks run on both audit paths)."""
        serial = part = None
        for node in tampered_outcome.bb_nodes:
            key = sorted(node.result.openings)[0]
            serial, part = key
            node.result.openings[key] = node.result.openings[key][:-1]
        params = tampered_outcome.setup.params
        auditor = Auditor(tampered_outcome.bb_nodes, params, group)
        for report in (auditor.verify_all(), auditor.audit()):
            assert report.checks["d-openings-complete"] is False
            assert any(
                f"ballot {serial} part {part}" in failure
                for failure in report.failures
                if failure.startswith("d-openings-complete")
            )

    def test_corrupted_tally_counts_are_rejected(self, tampered_outcome, group):
        from dataclasses import replace

        for node in tampered_outcome.bb_nodes:
            tally = node.result.tally
            counts = (tally.counts[0] + 1,) + tally.counts[1:]
            node.result.tally = replace(tally, counts=counts, total_votes=tally.total_votes + 1)
        params = tampered_outcome.setup.params
        report = Auditor(tampered_outcome.bb_nodes, params, group).verify_all()
        assert report.checks["h-tally-opening"] is False


class TestTallyHelpers:
    @pytest.fixture(scope="class")
    def tally_fixture(self, group, elgamal_keys):
        scheme = OptionEncodingScheme(3, elgamal_keys.public, group)
        rng = RandomSource(23)
        pairs = [scheme.commit_option(i % 3, rng) for i in range(9)]
        commitments = [commitment for commitment, _ in pairs]
        opening = scheme.combine_openings([opening for _, opening in pairs])
        options = ("red", "green", "blue")
        return scheme, commitments, opening, options

    def test_parallel_combine_matches_serial(self, tally_fixture):
        scheme, commitments, _, _ = tally_fixture
        serial = combine_tally_commitments(scheme, commitments)
        chunked = combine_tally_commitments(
            scheme, commitments, parallel=ParallelConfig(workers=1, chunk_size=2)
        )
        assert serial == chunked

    def test_open_tally_parallel_matches_open_tally(self, tally_fixture):
        scheme, commitments, opening, options = tally_fixture
        combined = combine_tally_commitments(scheme, commitments)
        reference = open_tally(scheme, combined, opening, options)
        batched = open_tally_parallel(scheme, combined, opening, options)
        assert batched == reference
        assert batched.total_votes == 9

    def test_open_tally_parallel_rejects_bad_opening(self, tally_fixture):
        scheme, commitments, opening, options = tally_fixture
        combined = combine_tally_commitments(scheme, commitments)
        forged = CommitmentOpening(opening.values, tuple(r + 1 for r in opening.randomness))
        with pytest.raises(ValueError):
            open_tally_parallel(scheme, combined, forged, options)


class TestElectionParameterKnobs:
    def test_per_item_reference_audit_still_available(self):
        params = ElectionParameters.small_test_election(
            num_voters=3, num_options=2, election_end=200.0, batch_audit=False
        )
        spec = ScenarioSpec.from_election_parameters(params, seed=19)
        outcome = ElectionEngine(spec).run(["option-1", "option-2", "option-1"])
        assert outcome.audit_report.passed
        # The per-item path records no phase timings.
        assert outcome.audit_timings == {}

    def test_invalid_audit_workers_rejected(self):
        with pytest.raises(ValueError):
            ElectionParameters.small_test_election(audit_workers=0)

    def test_invalid_security_bits_rejected(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(
                ElectionParameters.small_test_election(), batch_security_bits=4
            )

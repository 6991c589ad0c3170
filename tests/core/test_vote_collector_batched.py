"""Integration tests for batched (superblock) Vote Set Consensus on VC nodes.

The acceptance property of the batching work: for any ``consensus_batch_size``
the final agreed vote set is identical to the per-ballot baseline, batch
size 1 degenerates to the classic protocol, oversized batches collapse to a
single superblock, and a Byzantine node splitting honest opinions inside a
superblock forces the per-ballot fallback / recovery paths without breaking
agreement.
"""

import pytest

from repro.api import ElectionEngine, ScenarioSpec
from repro.core.byzantine import UcertWithholdingVoteCollector
from repro.core.ea import ElectionAuthority, vc_node_id
from repro.core.election import ElectionParameters
from repro.core.messages import VoteRequest
from repro.core.vote_collector import VoteCollectorNode
from repro.crypto.utils import RandomSource
from repro.net.adversary import NetworkConditions
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import Network, SimNode


CHOICES = ["option-1", "option-2", "option-1", "option-1", "option-2", "option-1"]


def run_outcome(batch_size, seed=11):
    params = ElectionParameters.small_test_election(
        num_voters=len(CHOICES), num_options=2, election_end=500.0,
        consensus_batch_size=batch_size,
    )
    # The spec seed pins the EA randomness, so every batch size sees the
    # *same* ballots (serials, vote codes) and the final vote sets are
    # comparable.
    engine = ElectionEngine(ScenarioSpec.from_election_parameters(params, seed=seed))
    return engine, engine.run(CHOICES)


class TestBatchedElections:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_outcome(batch_size=1)

    @pytest.mark.parametrize("batch_size", [2, 3, 100])
    def test_batched_vote_set_identical_to_per_ballot(self, baseline, batch_size):
        _, base_outcome = baseline
        _, outcome = run_outcome(batch_size=batch_size)
        reference = base_outcome.vote_collectors[0].final_vote_set
        assert reference is not None and len(reference) == len(CHOICES)
        for node in outcome.vote_collectors:
            assert node.final_vote_set == reference
        assert outcome.tally.as_dict() == base_outcome.tally.as_dict()
        assert outcome.audit_report is not None and outcome.audit_report.passed

    def test_batch_size_one_runs_classic_per_ballot_protocol(self, baseline):
        _, outcome = baseline
        stats = outcome.consensus_stats
        assert stats["superblocks"] == 0
        assert stats["per_ballot_instances"] == 4 * len(CHOICES)
        assert stats["envelopes_sent"] == 0

    def test_batch_larger_than_ballot_count_uses_one_superblock(self):
        _, outcome = run_outcome(batch_size=10_000)
        stats = outcome.consensus_stats
        assert stats["superblocks"] == 4  # one block per VC node
        assert stats["superblocks_fast"] == 4
        assert stats["superblocks_fallback"] == 0
        assert stats["per_ballot_instances"] == 0

    def test_batched_mode_sends_fewer_network_messages(self, baseline):
        _, base_outcome = baseline
        _, outcome = run_outcome(batch_size=100)
        assert outcome.network.messages_sent < base_outcome.network.messages_sent

    def test_all_blocks_fast_in_honest_run(self):
        _, outcome = run_outcome(batch_size=3)
        stats = outcome.consensus_stats
        assert stats["superblocks"] == 4 * 2  # two blocks of three ballots per node
        assert stats["superblocks_fast"] == stats["superblocks"]
        assert stats["recover_requests"] == 0


class ProbeVoter(SimNode):
    def on_message(self, message: Message) -> None:
        pass

    def cast(self, target, serial, vote_code):
        self.send(target, VoteRequest(serial, vote_code, self.node_id),
                  channel=ChannelKind.PUBLIC)


def build_byzantine_network(batch_size, reveal_to, seed=23):
    """Four VC nodes where VC-0 withholds a UCERT and reveals it selectively."""
    params = ElectionParameters.small_test_election(
        num_voters=4, num_options=2, election_end=500.0,
        consensus_batch_size=batch_size,
    )
    setup = ElectionAuthority(
        params, rng=RandomSource(31), include_proofs=False, include_trustee_data=False,
    ).setup()
    network = Network(conditions=NetworkConditions(base_latency=0.01, jitter=0.005, seed=seed))
    nodes = []
    for index in range(params.thresholds.num_vc):
        node_id = vc_node_id(index)
        if index == 0:
            node = UcertWithholdingVoteCollector(setup.vc_init[node_id], params)
            node.reveal_to = reveal_to
        else:
            node = VoteCollectorNode(setup.vc_init[node_id], params)
        nodes.append(node)
        network.register(node)
    voter = ProbeVoter("probe-voter")
    network.register(voter)
    return network, nodes, setup


class TestByzantineSuperblock:
    def test_byzantine_split_forces_recovery_inside_superblock(self):
        """VC-0 reveals the withheld UCERT to two honest nodes only.

        The third honest node enters the superblock with opinion "not voted",
        is outvoted by the quorum vector, and must recover the winning vote
        code through RECOVER-REQUEST -- all without leaving the fast path for
        the block or breaking agreement.
        """
        network, nodes, setup = build_byzantine_network(
            batch_size=100, reveal_to=(vc_node_id(1), vc_node_id(2)),
        )
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        voter = network.nodes["probe-voter"]
        voter.cast(vc_node_id(0), ballot.serial, line.vote_code)  # Byzantine responder
        network.run_until_idle()
        # No honest node saw VOTE_P: the ballot looks unused everywhere.
        for node in nodes[1:]:
            assert node.ballots[ballot.serial].ucert is None
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)

        honest = nodes[1:]
        expected = ((ballot.serial, line.vote_code),)
        for node in honest:
            assert node.final_vote_set == expected
        # VC-3 was outvoted: it decided "voted" without the code and recovered.
        outvoted = nodes[3]
        assert outvoted.vsc_stats.recover_requests == 1
        assert outvoted.consensus[ballot.serial].final_vote_code == line.vote_code
        for node in honest:
            assert node.vsc_stats.superblocks_fallback == 0
            assert node.vsc_stats.superblocks_fast == 1

    def test_byzantine_even_split_forces_superblock_fallback(self):
        """Revealing to a single honest node yields a 2-2 opinion split.

        No opinion vector can reach the Nv - fv quorum, so the superblock
        decides 0 and every honest node falls back to per-ballot consensus --
        and they still agree on the final vote set.
        """
        network, nodes, setup = build_byzantine_network(
            batch_size=100, reveal_to=(vc_node_id(1),),
        )
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        voter = network.nodes["probe-voter"]
        voter.cast(vc_node_id(0), ballot.serial, line.vote_code)
        network.run_until_idle()
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)

        honest = nodes[1:]
        reference = honest[0].final_vote_set
        assert reference is not None
        for node in honest:
            assert node.final_vote_set == reference
            assert node.vsc_stats.superblocks_fallback == 1
            assert node.vsc_stats.per_ballot_instances == len(setup.ballots)
        # If the disputed ballot survived, its recovered code must be genuine.
        if reference:
            assert reference == ((ballot.serial, line.vote_code),)

    def test_junk_superblock_ids_are_not_buffered(self):
        """Messages for block ids outside our partition must be dropped, not
        accumulated forever (a Byzantine flooding vector)."""
        from repro.consensus.interfaces import BVal

        network, nodes, setup = build_byzantine_network(batch_size=100, reveal_to=())
        honest = nodes[1]
        honest._on_consensus_message("VC-0", BVal("sb|999", 1, 1))
        honest._on_consensus_message("VC-0", BVal("sb|garbage", 1, 0))
        assert honest._sb_buffer == {}
        # A genuine block id is still buffered until the block starts.
        honest._on_consensus_message("VC-0", BVal("sb|0", 1, 1))
        assert list(honest._sb_buffer) == ["sb|0"]

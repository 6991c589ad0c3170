"""Parallel shard driver: worker-count invariance, memory bound, failure path."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import MultiElectionService, ScenarioSpec, ShardingProfile
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.utils import int_to_bytes
from repro.net.codec import MessageCodec, WireFormatError
from repro.shard import (
    ParallelShardedElectionDriver,
    ShardExecutionError,
    ShardRange,
    ShardRunner,
    ShardSliceResult,
    ShardedElectionDriver,
    VoteCodeRejected,
    shard_worker_pool,
)
from repro.shard.parallel_driver import worker_initargs

NUM_BALLOTS = 240
SEED = 13
ELECTION_ID = "parallel-driver-test"


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec.preset(
        "national_scale", election_id=ELECTION_ID, seed=SEED
    ).derive(sharding=ShardingProfile(num_shards=4))


@pytest.fixture(scope="module")
def pool(spec):
    """One warm pool shared by every test in this module (same election)."""
    with shard_worker_pool(spec, workers=2) as shared:
        yield shared


@pytest.fixture(scope="module")
def sequential(spec):
    return ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS).run()


def encode(spec, record):
    return MessageCodec(group=spec.crypto.build_group()).encode(record)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_sequential(self, spec, sequential, workers):
        """The non-negotiable invariant: the global commit record's canonical
        wire frame (tally, commitments, digests and all) must not depend on
        the worker count or completion order."""
        outcome = ParallelShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, workers=workers
        ).run()
        assert outcome.report.ok
        assert outcome.tally.as_dict() == sequential.tally.as_dict()
        assert encode(spec, outcome.global_record) == encode(
            spec, sequential.global_record
        )

    def test_shard_stats_cover_every_shard(self, spec, pool):
        outcome = ParallelShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, pool=pool
        ).run()
        assert sorted(s["shard_id"] for s in outcome.shard_stats) == [0, 1, 2, 3]
        registered = sum(s["ballots_registered"] for s in outcome.shard_stats)
        assert registered == NUM_BALLOTS

    def test_on_shard_sees_every_result(self, spec, pool):
        seen = []
        ParallelShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, pool=pool, on_shard=seen.append
        ).run()
        assert sorted(r.shard_id for r in seen) == [0, 1, 2, 3]
        assert all(isinstance(r, ShardSliceResult) for r in seen)


class TestPoolLifecycle:
    def test_shared_pool_survives_runs_and_is_validated(self, spec, pool):
        first = ParallelShardedElectionDriver(spec, num_ballots=80, pool=pool).run()
        second = ParallelShardedElectionDriver(spec, num_ballots=80, pool=pool).run()
        assert pool.started  # the driver must not shut down a borrowed pool
        assert first.tally.as_dict() == second.tally.as_dict()

    def test_pool_warmed_for_another_election_is_rejected(self, spec, pool):
        other = spec.derive(election_id="some-other-election")
        assert worker_initargs(other) != worker_initargs(spec)
        with pytest.raises(ValueError, match="warmed for"):
            ParallelShardedElectionDriver(other, num_ballots=80, pool=pool)

    def test_owned_pool_is_shut_down_after_the_run(self, spec):
        driver = ParallelShardedElectionDriver(spec, num_ballots=80, workers=2)
        driver.run()
        assert driver._owns_pool

    def test_workers_below_one_are_rejected(self, spec):
        with pytest.raises(ValueError, match="workers"):
            ParallelShardedElectionDriver(spec, num_ballots=80, workers=0)


class TestInflightBound:
    def test_peak_inflight_respects_the_cap(self, spec, pool):
        driver = ParallelShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, pool=pool, max_inflight_shards=1
        )
        driver.run()
        assert driver.peak_inflight == 1

    def test_default_cap_allows_pipelining(self, spec, pool):
        driver = ParallelShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, pool=pool
        )
        driver.run()
        assert 1 <= driver.peak_inflight <= 2 * pool.workers

    def test_spec_cap_is_used_when_not_overridden(self, spec):
        capped = spec.derive(
            sharding=ShardingProfile(num_shards=4, workers=2, max_inflight_shards=1)
        )
        driver = ParallelShardedElectionDriver(capped, num_ballots=NUM_BALLOTS)
        driver.run()
        assert driver.peak_inflight == 1


class TestWorkerFailure:
    def test_failed_shard_is_named_and_pool_survives(self, spec, pool):
        """A worker raising mid-shard surfaces the shard id; the shared pool
        stays usable for the next run (the failure cancelled stragglers but
        did not poison the workers)."""
        driver = ParallelShardedElectionDriver(
            spec,
            num_ballots=NUM_BALLOTS,
            pool=pool,
            tampered_codes={130: b"forged-code-0000"},  # serial in shard 2
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            driver.run()
        assert excinfo.value.shard_id == 2
        assert isinstance(excinfo.value.__cause__.__cause__, VoteCodeRejected)
        # the pool is still good: a clean run right after succeeds
        outcome = ParallelShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, pool=pool
        ).run()
        assert outcome.report.ok

    def test_killed_worker_is_named_and_the_pool_recovers(self, spec):
        """SIGKILL one real worker mid-run: the run names a shard, and the
        next run on the same pool respawns warm workers and reproduces the
        sequential global commit frame bit for bit."""
        spec = spec.derive(sharding=ShardingProfile(num_shards=8))
        reference = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS).run()
        killed = []

        def kill_one_worker(result):
            if not killed:
                killed.append(next(iter(own_pool._executor._processes)))
                os.kill(killed[0], signal.SIGKILL)

        with shard_worker_pool(spec, workers=2) as own_pool:
            with pytest.raises(ShardExecutionError) as excinfo:
                ParallelShardedElectionDriver(
                    spec,
                    num_ballots=NUM_BALLOTS,
                    pool=own_pool,
                    max_inflight_shards=2,
                    on_shard=kill_one_worker,
                ).run()
            assert killed
            assert 0 <= excinfo.value.shard_id < 8
            assert isinstance(excinfo.value.__cause__.__cause__, BrokenProcessPool)
            rerun = ParallelShardedElectionDriver(
                spec, num_ballots=NUM_BALLOTS, pool=own_pool
            ).run()
        assert rerun.report.ok
        assert encode(spec, rerun.global_record) == encode(
            spec, reference.global_record
        )

    def test_owned_pool_is_shut_down_on_failure(self, spec):
        driver = ParallelShardedElectionDriver(
            spec,
            num_ballots=NUM_BALLOTS,
            workers=2,
            tampered_codes={10: b"forged-code-0000"},
        )
        with pytest.raises(ShardExecutionError):
            driver.run()


class TestWireRoundTrip:
    @pytest.fixture(scope="class")
    def result(self, group):
        scheme = OptionEncodingScheme(
            2, group.power_g(group.hash_to_scalar(b"shard-pk", int_to_bytes(SEED))), group
        )
        return ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        ).run()

    def test_round_trip_is_lossless(self, result, group):
        wire = result.to_wire_dict()
        rebuilt = ShardSliceResult.from_wire_dict(wire, MessageCodec(group=group))
        assert rebuilt.record == result.record
        assert rebuilt.opening == result.opening
        assert rebuilt.record_frame == result.record_frame
        assert rebuilt.counts == result.counts

    def test_wire_dict_carries_only_primitives(self, result):
        """The process-boundary form must never contain group elements."""
        wire = result.to_wire_dict()
        assert isinstance(wire["record_frame"], bytes)
        assert all(type(v) is int for v in wire["opening_values"])
        assert all(type(r) is int for r in wire["opening_randomness"])
        assert all(type(c) is int for c in wire["counts"])

    def test_non_record_frame_is_rejected(self, result, group):
        codec = MessageCodec(group=group)
        wire = dict(result.to_wire_dict())
        wire["record_frame"] = codec.encode(result.record.commitment)
        with pytest.raises(WireFormatError, match="ShardCommitRecord"):
            ShardSliceResult.from_wire_dict(wire, codec)


class TestAdmissionCheck:
    """The admission check must be live: a tampered code is rejected."""

    @pytest.fixture(scope="class")
    def scheme(self, group):
        return OptionEncodingScheme(
            2, group.power_g(group.hash_to_scalar(b"shard-pk", int_to_bytes(SEED))), group
        )

    def cast_serial(self, runner):
        for serial in range(runner.shard.lo, runner.shard.hi):
            if runner.is_cast(runner._ballot_digest(serial)):
                return serial
        raise AssertionError("no cast serial in range")

    def test_honest_codes_pass(self, scheme):
        result = ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        ).run()
        assert result.record.ballots_cast > 0

    def test_tampered_code_is_rejected(self, scheme):
        probe = ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        )
        victim = self.cast_serial(probe)
        runner = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            tampered_codes={victim: b"not-the-real-code"},
        )
        with pytest.raises(VoteCodeRejected) as excinfo:
            runner.run()
        assert excinfo.value.serial == victim
        assert excinfo.value.shard_id == 0

    def test_tampering_an_abstaining_serial_is_harmless(self, scheme):
        probe = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            turnout=0.5,
        )
        abstainer = next(
            serial
            for serial in range(60)
            if not probe.is_cast(probe._ballot_digest(serial))
        )
        runner = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            turnout=0.5,
            tampered_codes={abstainer: b"never-submitted"},
        )
        assert runner.run().record.ballots_cast > 0

    def test_commitment_table_is_independent_of_submissions(self, scheme):
        """The EA table depends only on election data, never on what voters
        submit -- tampering must not move the reference the check uses."""
        honest = ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        )
        tampered = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            tampered_codes={5: b"forged"},
        )
        assert honest.ea_commitment_table() == tampered.ea_commitment_table()


class TestServiceRouting:
    def test_parallel_profile_routes_to_the_pool_driver(self):
        base = ScenarioSpec.preset(
            "national_scale", election_id="svc-parallel", seed=SEED
        )
        sequential_spec = base.derive(sharding=ShardingProfile(num_shards=4))
        parallel_spec = base.derive(
            sharding=ShardingProfile(num_shards=4, workers=2, max_inflight_shards=2)
        )
        assert not sequential_spec.sharding.parallel
        assert parallel_spec.sharding.parallel
        sequential = MultiElectionService().run_sharded(
            sequential_spec, num_ballots=NUM_BALLOTS
        )
        parallel = MultiElectionService().run_sharded(
            parallel_spec, num_ballots=NUM_BALLOTS
        )
        assert parallel.verified
        assert parallel.tally == sequential.tally

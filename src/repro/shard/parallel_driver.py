"""Parallel shard execution: warm workers, streaming unordered merge.

Every :class:`~repro.shard.shard_runner.ShardRunner` is a pure function of
``(seed, election_id, shard_range, scheme)`` and the cross-shard merge is
arrival-order invariant, so the sequential scale pipeline parallelizes
without changing a single output bit.  This module is that execution mode:

workers     A persistent :class:`~repro.perf.parallel.WarmProcessPool` whose
            initializer runs *once per worker process*: build the crypto
            group from the backend name, warm the fixed-base tables, derive
            the commitment scheme from ``(backend, num_options, seed)`` --
            the expensive state never crosses a process boundary and is
            never rebuilt per shard.

transfer    Shard results come back as **codec frames + opening scalars**
            (:meth:`ShardSliceResult.to_wire_dict`), never pickled group
            elements: gmpy2 ``mpz`` values have no pickle-stable identity
            and curve backends carry backend-specific element classes, so
            the wire form is the only representation that behaves
            identically on every registered backend.

merge       Completed shards stream into :meth:`CrossShardCommit.prepare`
            in *completion* order -- there is no barrier; the merge folds
            finished shards while slow ones still run.  Group
            multiplication commutes, so the folded element (and therefore
            the global commit record, its digests, the tally and the
            outcome) is bit-identical for any worker count and any
            completion order.

memory      ``max_inflight_shards`` bounds how many shards may be pending
            at once, so the parent's peak working set is O(inflight x
            record) and each worker's is O(shard) -- the sequential
            pipeline's memory story survives parallel execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.registry import get_group
from repro.net.codec import MessageCodec
from repro.perf.parallel import PoolTaskError, WarmProcessPool
from repro.shard.driver import (
    ShardedElectionOutcome,
    commit_and_verify,
    derive_scheme,
    shard_stat_row,
)
from repro.shard.merge import CrossShardCommit
from repro.shard.partition import ShardPlan, ShardRange
from repro.shard.shard_runner import ShardRunner, ShardSliceResult


class ShardExecutionError(RuntimeError):
    """A shard's worker raised or died mid-slice; names the shard."""

    def __init__(self, shard_id: int, cause: BaseException):
        super().__init__(f"shard {shard_id} failed in its worker: {cause}")
        self.shard_id = shard_id


# -- worker side ---------------------------------------------------------------
#
# Everything below the initializer runs inside pool workers.  The initializer
# receives only picklable primitives; the derived scheme (group, fixed-base
# tables, warmed ElGamal key) lives in a module global for the worker's whole
# life, shared by every shard slice that lands on it.

@dataclass
class _ShardWorkerState:
    scheme: OptionEncodingScheme
    seed: int
    election_id: str
    codec: MessageCodec


_WORKER: Optional[_ShardWorkerState] = None


def _init_shard_worker(
    backend: str, num_options: int, seed: int, election_id: str
) -> None:
    """Once per worker process: group + fixed-base tables + scheme."""
    global _WORKER
    scheme = derive_scheme(get_group(backend), num_options, seed)
    _WORKER = _ShardWorkerState(
        scheme=scheme,
        seed=seed,
        election_id=election_id,
        codec=MessageCodec(group=scheme.group),
    )


def _run_shard_slice(task: dict) -> dict:
    """One shard's slice, returned in process-boundary wire form."""
    state = _WORKER
    if state is None:
        raise RuntimeError("shard worker used before its initializer ran")
    runner = ShardRunner(
        ShardRange(task["shard_id"], task["lo"], task["hi"]),
        scheme=state.scheme,
        seed=state.seed,
        election_id=state.election_id,
        num_collectors=task["num_collectors"],
        consensus_batch_size=task["consensus_batch_size"],
        turnout=task["turnout"],
        codec=state.codec,
        tampered_codes=task["tampered_codes"],
    )
    return runner.run().to_wire_dict()


# -- parent side ---------------------------------------------------------------

def worker_initargs(spec) -> tuple:
    """The (picklable) identity a pool must be warmed with for ``spec``."""
    return (
        spec.crypto.backend,
        len(spec.options),
        int(spec.seed),
        spec.election_id,
    )


def shard_worker_pool(spec, workers: Optional[int] = None) -> WarmProcessPool:
    """A warm pool whose workers are initialized for ``spec``'s election.

    Reusable across any number of :class:`ParallelShardedElectionDriver`
    runs of the *same* election identity (backend, options, seed, id) --
    hand it to the driver's ``pool=`` to amortize worker warm-up.
    """
    return WarmProcessPool(
        workers=workers if workers is not None else spec.sharding.workers,
        initializer=_init_shard_worker,
        initargs=worker_initargs(spec),
    )


class ParallelShardedElectionDriver:
    """Run the sharded pipeline with shard slices on a warm process pool.

    Outcome-equivalent to :class:`~repro.shard.driver.ShardedElectionDriver`
    by construction: same shard plan, same per-shard derivations, same merge
    algebra -- only the execution schedule differs.  ``workers`` and
    ``max_inflight_shards`` come from ``spec.sharding`` unless overridden.
    """

    def __init__(
        self,
        spec,
        num_ballots: Optional[int] = None,
        codec: Optional[MessageCodec] = None,
        on_shard: Optional[Callable[[ShardSliceResult], None]] = None,
        pool: Optional[WarmProcessPool] = None,
        workers: Optional[int] = None,
        max_inflight_shards: Optional[int] = None,
        tampered_codes: Optional[Mapping[int, bytes]] = None,
    ):
        self.spec = spec
        self.num_ballots = int(num_ballots if num_ballots is not None else spec.electorate)
        if self.num_ballots < 1:
            raise ValueError("a sharded election needs at least one ballot")
        self.codec = codec
        self.on_shard = on_shard
        self.sharding = spec.sharding
        self.plan = ShardPlan.split(0, self.num_ballots, self.sharding.num_shards)
        self.workers = int(workers if workers is not None else self.sharding.workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.max_inflight_shards = (
            max_inflight_shards
            if max_inflight_shards is not None
            else self.sharding.max_inflight_shards
        )
        self.tampered_codes = dict(tampered_codes or {})
        if pool is not None and pool.initargs != worker_initargs(spec):
            raise ValueError(
                f"pool was warmed for {pool.initargs}, "
                f"this election needs {worker_initargs(spec)}"
            )
        self._pool = pool
        self._owns_pool = pool is None
        #: highest number of simultaneously in-flight shards during the last
        #: run (copied from the pool; what the memory-bound tests assert on).
        self.peak_inflight = 0

    def _tasks(self) -> List[dict]:
        return [
            {
                "shard_id": shard.shard_id,
                "lo": shard.lo,
                "hi": shard.hi,
                "num_collectors": self.sharding.scale_collectors,
                "consensus_batch_size": self.sharding.scale_batch_size,
                "turnout": self.sharding.scale_turnout,
                "tampered_codes": {
                    serial: code
                    for serial, code in self.tampered_codes.items()
                    if serial in shard
                },
            }
            for shard in self.plan.ranges
        ]

    def run(self) -> ShardedElectionOutcome:
        started = time.perf_counter()
        scheme = derive_scheme(
            self.spec.crypto.build_group(), len(self.spec.options), self.spec.seed
        )
        # Decode worker frames into *this* group's elements, so the merge
        # works with the same backend classes as the sequential driver.
        codec = self.codec or MessageCodec(group=scheme.group)
        merge = CrossShardCommit(scheme, codec=codec)
        pool = self._pool or shard_worker_pool(self.spec, self.workers)
        shard_stats: List[dict] = []
        try:
            for task, wire in pool.imap_unordered(
                _run_shard_slice, self._tasks(), max_inflight=self.max_inflight_shards
            ):
                # The O(num_options) record + opening are all that exist in
                # the parent; the shard's working set died with its slice.
                result = ShardSliceResult.from_wire_dict(wire, codec)
                merge.prepare(result.record, result.opening)
                shard_stats.append(shard_stat_row(result))
                if self.on_shard is not None:
                    self.on_shard(result)
        except PoolTaskError as exc:
            raise ShardExecutionError(exc.task["shard_id"], exc.__cause__) from exc
        finally:
            self.peak_inflight = pool.peak_inflight
            if self._owns_pool:
                pool.shutdown()

        tally, global_record, report = commit_and_verify(
            merge, scheme, self.spec.election_id, tuple(self.spec.options), codec
        )
        return ShardedElectionOutcome(
            election_id=self.spec.election_id,
            options=tuple(self.spec.options),
            num_ballots=self.num_ballots,
            num_shards=self.plan.num_shards,
            tally=tally,
            global_record=global_record,
            report=report,
            shard_stats=shard_stats,
            duration_s=time.perf_counter() - started,
        )

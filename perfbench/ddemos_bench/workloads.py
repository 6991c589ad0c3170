"""The four workloads, their end-to-end metrics and their correctness gates.

Everything runs through the program's public entry points only:
``ElectionEngine.begin`` / ``run_phase`` / ``outcome`` for the full-crypto
engine, and ``MultiElectionService.run_sharded(spec, num_ballots=,
on_shard=)`` for the sharded scale path.  The benchmark generates each
election's spec and voter choices from the run seed; the program receives
nothing else.

Engine elections run one after another (a closed loop at the election
level).  Inside an election, voters arrive on the engine's fixed simulated
schedule (``stagger`` apart), an open loop in simulated time, and receipt
latency is measured from each voter's due time.  The scale path runs one
sharded election at a time.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.determinism import outcome_hash
from repro.api import (
    AdmissionProfile,
    ConsensusConfig,
    ElectionEngine,
    MultiElectionService,
    ScenarioSpec,
    ShardingProfile,
    TransportProfile,
)
from repro.net.codec import MessageCodec

perf = time.perf_counter

OPTIONS = ("option-1", "option-2", "option-3")

#: payload types of the engine's Vote Set Consensus phase
CONSENSUS_PAYLOADS = frozenset(
    {"Announce", "VscEnvelope", "VscBatch", "RecoverRequest", "RecoverResponse"}
)


@dataclass(frozen=True)
class Sizes:
    """Electorate sizes; the self-test shrinks them, the benchmark does not."""

    voters: int = 100
    ballots: int = 100_000
    shards: int = 16
    warmup_voters: int = 8
    warmup_ballots: int = 4_000


FULL = Sizes()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "engine" or "scale"
    sibling: str  # workload whose output must match bit for bit


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("engine_paper", "engine", "engine_batched"),
        Workload("engine_batched", "engine", "engine_paper"),
        Workload("scale_seq", "scale", "scale_par"),
        Workload("scale_par", "scale", "scale_seq"),
    )
}


# -- inputs ----------------------------------------------------------------------


def election_seed(run_seed: int, index: int) -> int:
    """Seed of the ``index``-th election of a run (the warm-up uses index 999)."""
    return run_seed * 1000 + index


def engine_spec(workload: str, seed: int, voters: int) -> ScenarioSpec:
    base = ScenarioSpec(
        options=OPTIONS, num_voters=voters, election_id=f"bench-{seed}", seed=seed
    )
    if workload == "engine_paper":
        return base.derive(
            consensus=ConsensusConfig(batch_size=1), transport=TransportProfile.wire()
        )
    if workload == "engine_batched":
        return base.derive(
            consensus=ConsensusConfig(batch_size=8),
            admission=AdmissionProfile.batched(32),
            transport=TransportProfile.memory(),
        )
    raise ValueError(f"not an engine workload: {workload}")


def voter_choices(seed: int, voters: int) -> List[str]:
    rng = random.Random(seed)
    return [rng.choice(OPTIONS) for _ in range(voters)]


def scale_spec(workload: str, seed: int, shards: int) -> ScenarioSpec:
    # scale_par always gets more than one worker, so the pool path runs even
    # on a one-core machine.
    workers = 1 if workload == "scale_seq" else max(2, nproc())
    return ScenarioSpec(
        options=OPTIONS,
        election_id=f"scale-{seed}",
        seed=seed,
        sharding=ShardingProfile(num_shards=shards, workers=workers),
    )


# -- one engine election -----------------------------------------------------------


@dataclass
class ElectionResult:
    wall_s: float
    setup_s: float
    phase_s: Dict[str, float]
    voters: int
    receipts: int
    messages: int
    receipt_sim_s: List[float]
    outcome_hash: str
    failed: int
    problems: List[str]
    #: outcome-derived layer statistics (filled only on traced runs)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ballots(self) -> int:
        return self.voters

    @property
    def setup_samples(self) -> List[float]:
        return [self.setup_s]


def engine_problems(outcome, options, choices) -> Tuple[List[str], int]:
    """Correctness gate of one engine election: its problems (empty = correct)
    and the number of voters without a valid receipt."""
    problems = []
    expected = {option: 0 for option in options}
    for choice in choices:
        expected[choice] += 1
    if outcome.tally is None:
        problems.append("no tally reached a BB majority")
    elif outcome.tally.as_dict() != expected:
        problems.append(f"tally {outcome.tally.as_dict()} != generated choices {expected}")
    if outcome.audit_report is None or not outcome.audit_report.passed:
        problems.append("the audit did not pass")
    invalid = sum(1 for v in outcome.voters if v.receipt is None or not v.receipt_valid)
    if invalid:
        problems.append(f"{invalid} voters hold no valid receipt")
    return problems, invalid


def _layer_stats(outcome) -> Dict[str, object]:
    consensus_messages = sum(
        1
        for record in outcome.network.delivery_log
        if type(record.message.payload).__name__ in CONSENSUS_PAYLOADS
    )
    return {
        "bytes_sent": outcome.network.bytes_sent,
        "consensus_messages": consensus_messages,
        "consensus": outcome.consensus_stats,
        "admission": outcome.admission_stats,
        "audit_timings": outcome.audit_timings,
    }


def _span(tracer, key, name=None):
    return tracer.span(key, name) if tracer is not None else contextlib.nullcontext()


def _tag(tracer, spec: ScenarioSpec) -> None:
    """Stamp the spans recorded from here on with the election id."""
    if tracer is not None:
        tracer.election = spec.election_id


def run_election(spec: ScenarioSpec, choices: List[str], tracer=None) -> ElectionResult:
    _tag(tracer, spec)
    engine = ElectionEngine(spec)
    phases: Dict[str, float] = {}
    with _span(tracer, "election", f"election[{spec.seed}]"):
        start = perf()
        ctx = engine.begin(choices)
        try:
            for driver in engine.drivers:
                if driver.should_run(ctx):
                    began = perf()
                    with _span(tracer, "phase", f"phase.{driver.name}"):
                        engine.run_phase(driver, ctx)
                    phases[driver.name] = perf() - began
                    if driver.name == "setup":
                        setup_s = perf() - start
        finally:
            engine.close()
        wall = perf() - start
    outcome = engine.outcome()
    problems, failed = engine_problems(outcome, spec.options, choices)
    return ElectionResult(
        wall_s=wall,
        setup_s=setup_s,
        phase_s=phases,
        voters=spec.num_voters,
        receipts=outcome.receipts_obtained,
        messages=outcome.network.messages_sent,
        receipt_sim_s=[
            v.completed_at - index * spec.stagger
            for index, v in enumerate(outcome.voters)
            if v.completed_at is not None
        ],
        outcome_hash=outcome_hash(outcome),
        failed=failed,
        problems=problems,
        stats=_layer_stats(outcome) if tracer is not None else {},
    )


# -- one sharded election -----------------------------------------------------------


@dataclass
class ShardedResult:
    wall_s: float
    setup_s: float
    ballots: int
    shards: int
    messages: int
    frame: bytes
    worker_private_kb: int
    shard_durations: List[float]
    failed: int
    problems: List[str]
    stats: Dict[str, object] = field(default_factory=dict)
    #: extra set-up samples taken after this election (see ``setup_probe``)
    setup_probes_s: List[float] = field(default_factory=list)

    @property
    def setup_samples(self) -> List[float]:
        return [self.setup_s] + self.setup_probes_s


def _private_kb(pid: int) -> int:
    """Resident memory a live process does not share (Private_Clean +
    Private_Dirty), in kB (0 if unreadable).  Pages a forked worker still
    shares copy-on-write with its parent are left out: the parent's own peak
    already counts them."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        return 0
    return total


def run_sharded(spec: ScenarioSpec, ballots: int, tracer=None) -> ShardedResult:
    _tag(tracer, spec)
    shards = spec.sharding.num_shards
    marks: List[float] = []
    worker_private = [0]

    def on_shard(result) -> None:
        marks.append(perf())
        if len(marks) == shards and spec.sharding.workers > 1:
            # Every slice is done and the workers are still alive.  CPython
            # keeps the memory a slice freed, so this is close to their peak.
            worker_private[0] = sum(
                _private_kb(p.pid) for p in multiprocessing.active_children()
            )

    start = perf()
    try:
        with _span(tracer, "run_sharded"):
            report = MultiElectionService().run_sharded(
                spec, num_ballots=ballots, on_shard=on_shard
            )
    except Exception as exc:  # a failed shard fails the run; report, don't crash
        return ShardedResult(perf() - start, 0.0, 0, shards, 0, b"", 0, [], shards,
                             [f"run_sharded raised {exc!r}"])
    wall = perf() - start
    outcome = report.outcome
    record = outcome.global_record
    problems = []
    if not report.verified:
        problems.append("the cross-shard commit did not verify")
    if record.total_cast != ballots or sum(report.tally.values()) != record.total_cast:
        problems.append(
            f"cast {record.total_cast}, tallied {sum(report.tally.values())}, "
            f"registered {ballots}"
        )
    return ShardedResult(
        wall_s=wall,
        setup_s=marks[0] - start,
        ballots=record.total_cast,
        shards=shards,
        messages=outcome.messages_sent,
        frame=MessageCodec().encode(record),
        worker_private_kb=worker_private[0],
        shard_durations=[stat["duration_s"] for stat in outcome.shard_stats],
        failed=0,
        problems=problems,
        stats={
            "superblocks_fast": sum(s["superblocks_fast"] for s in outcome.shard_stats),
            "superblocks_fallback": sum(s["superblocks_fallback"] for s in outcome.shard_stats),
            "workers": spec.sharding.workers,
        },
    )


class _FirstSlice(Exception):
    """Raised from ``on_shard`` to stop a set-up probe at its first slice."""


def setup_probe(spec: ScenarioSpec, ballots: int) -> float:
    """Set-up time of one more ``run_sharded`` call, stopped at its first slice.

    Same definition as ``ShardedResult.setup_s`` (call to first ``on_shard``)
    at a fraction of its cost, so a run can take many set-up samples.  The
    driver's own clean-up (the pool shuts down and waits for its workers)
    runs when the callback raises.
    """
    start = perf()
    marks: List[float] = []

    def on_shard(result) -> None:
        marks.append(perf())
        raise _FirstSlice

    with contextlib.suppress(_FirstSlice):
        MultiElectionService().run_sharded(spec, num_ballots=ballots, on_shard=on_shard)
    return marks[0] - start


# -- runs -----------------------------------------------------------------------------


def timed_loop(seconds: float, body: Callable[[int], object], first_index: int = 0) -> list:
    """Run ``body(i)`` for ``i = first_index, ...`` back to back for about ``seconds``.

    Runs at least once, and stops when starting another iteration would end
    further past the target than stopping now falls short of it.
    """
    results = []
    start = perf()
    while True:
        results.append(body(first_index + len(results)))
        elapsed = perf() - start
        if elapsed >= seconds - 0.5 * elapsed / len(results):
            return results


class Runner:
    """Runs one workload: warm-up, timed iterations, cross-check."""

    def __init__(self, workload: str, seed: int, sizes: Sizes = FULL):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.sizes = sizes

    def warm_up(self) -> None:
        """Untimed small election: imports, generator tables and codecs warm up."""
        warm_seed = election_seed(self.seed, 999)
        if self.workload.pipeline == "engine":
            spec = engine_spec(self.workload.name, warm_seed, self.sizes.warmup_voters)
            run_election(spec, voter_choices(warm_seed, self.sizes.warmup_voters))
        else:
            spec = scale_spec(self.workload.name, warm_seed, self.sizes.shards)
            run_sharded(spec, self.sizes.warmup_ballots)

    def iteration(self, index: int, tracer=None, workload: Optional[str] = None,
                  setup_probes: int = 0):
        """One election of this run (``workload`` overrides for the cross-check).

        On the scale path ``setup_probes`` more set-up samples follow a correct
        election; the engine takes one per election.
        """
        name = workload or self.workload.name
        if self.workload.pipeline == "engine":
            seed = election_seed(self.seed, index)
            spec = engine_spec(name, seed, self.sizes.voters)
            try:
                return run_election(spec, voter_choices(seed, spec.num_voters), tracer)
            except Exception as exc:  # a crashed election fails the run; report it
                return ElectionResult(0.0, 0.0, {}, spec.num_voters, 0, 0, [], "",
                                      spec.num_voters, [f"election raised {exc!r}"])
        # Every scale iteration replays the same election: the commit frame
        # must come out bit-identical each time.
        spec = scale_spec(name, election_seed(self.seed, 0), self.sizes.shards)
        result = run_sharded(spec, self.sizes.ballots, tracer)
        if not result.problems:
            for _ in range(setup_probes):
                gc.collect()
                result.setup_probes_s.append(setup_probe(spec, self.sizes.ballots))
        return result

    def cross_check(self, first) -> List[str]:
        """Run the sibling workload's first election and compare outputs bit for bit."""
        other = self.iteration(0, workload=self.workload.sibling)
        problems = [f"{self.workload.sibling}: {p}" for p in other.problems]
        if self.workload.pipeline == "engine":
            if other.outcome_hash != first.outcome_hash:
                problems.append(
                    f"outcome hash {first.outcome_hash[:12]} != "
                    f"{self.workload.sibling} {other.outcome_hash[:12]}"
                )
        elif other.frame != first.frame:
            problems.append(f"global commit frame differs from {self.workload.sibling}")
        return problems


def consistency_problems(pipeline: str, results: list) -> List[str]:
    """Per-iteration gate failures, plus scale replays that did not repeat exactly."""
    problems = [p for r in results for p in r.problems]
    if pipeline == "scale":
        frames = {r.frame for r in results if not r.problems}
        if len(frames) > 1:
            problems.append("the global commit frame changed between identical runs")
    return problems


# -- end-to-end metrics ------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb(results: list) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = max((getattr(r, "worker_private_kb", 0) for r in results), default=0)
    return (own_kb + workers_kb) / 1024.0


#: name -> (unit, pipelines it applies to)
END_TO_END = {
    "ballots_per_s": ("ballots/s", ("engine", "scale")),
    "setup_s": ("s", ("engine", "scale")),
    "vote_ballots_per_s": ("ballots/s", ("engine",)),
    "result_s": ("s", ("engine",)),
    "audit_s": ("s", ("engine",)),
    "receipt_sim_p50_s": ("sim_s", ("engine",)),
    "receipt_sim_p90_s": ("sim_s", ("engine",)),
    "messages_per_ballot": ("messages", ("engine", "scale")),
    "peak_rss_mb": ("MB", ("engine", "scale")),
    "failed_ratio": ("fraction", ("engine", "scale")),
}

#: metrics that repeat exactly at a fixed seed
EXACT_AT_FIXED_SEED = (
    "messages_per_ballot",
    "receipt_sim_p50_s",
    "receipt_sim_p90_s",
    "crypto.modexp_calls",
    "crypto.modexp_per_ballot",
    "crypto.hash_calls",
    "shard.hashes_per_ballot",
    "consensus.messages_per_ballot",
    "consensus.instances",
    "consensus.superblock_fallback_ratio",
    "net.messages_per_ballot",
    "net.events",
)
#: counts that look exact but are not (measured 3,651,162-3,651,406 bytes
#: over three identical engine_paper runs)
NOT_EXACT = ("net.bytes_per_ballot", "codec.bytes_encoded")


def end_to_end(pipeline: str, results: list) -> Dict[str, float]:
    """Every end-to-end metric but ``failed_ratio``, from correct iterations.

    Timings are medians over the iterations.  Counts and simulated latencies
    come from the first election alone, so they repeat exactly at a fixed
    seed however many iterations fit in the time budget.
    """
    med = statistics.median
    first = results[0]
    metrics = {
        "ballots_per_s": med(r.ballots / r.wall_s for r in results),
        "setup_s": med(s for r in results for s in r.setup_samples),
        "messages_per_ballot": first.messages / first.ballots,
        "peak_rss_mb": peak_rss_mb(results),
    }
    if pipeline == "engine":
        metrics.update({
            "vote_ballots_per_s": med(r.receipts / r.phase_s["voting"] for r in results),
            "result_s": med(
                sum(r.phase_s.get(p, 0.0) for p in ("consensus", "tally", "merge"))
                for r in results
            ),
            "audit_s": med(r.phase_s.get("audit", 0.0) for r in results),
            "receipt_sim_p50_s": percentile(first.receipt_sim_s, 50),
            "receipt_sim_p90_s": percentile(first.receipt_sim_s, 90),
        })
    return metrics


def attempted_failed(pipeline: str, results: list) -> tuple:
    """Operations attempted and failed: ballots on the engine, shards at scale."""
    if pipeline == "engine":
        return sum(r.voters for r in results), sum(r.failed for r in results)
    return sum(r.shards for r in results), sum(r.failed for r in results)

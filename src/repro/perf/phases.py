"""Phase-duration model behind Figure 5c.

Figure 5c breaks the complete election into four phases and reports each
phase's duration as the number of cast ballots grows (4 VC nodes,
n = 200,000 ballots, m = 4 options, disk-backed storage):

1. **Vote Collection** -- dominated by the per-vote cost of the voting
   protocol; its duration is simply ``ballots_cast / throughput`` where the
   throughput comes from the same cost model as Figures 5a/5b.
2. **Vote Set Consensus** -- one (batched) binary-consensus instance per
   *registered* ballot plus the ANNOUNCE exchange; per-ballot CPU cost is
   small and the work parallelises across the VC machines.
3. **Push to BB and encrypted tally** -- the VC nodes upload the final vote
   set to every BB node and the BB nodes mark the cast rows; cost is
   proportional to the number of cast ballots.
4. **Publish result** -- the trustees compute and upload their shares of the
   tally opening; also proportional to the number of cast ballots, with a
   small constant for reconstruction and publication.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.perf.costmodel import CostModel, DatabaseCosts


@dataclass
class PhaseRecorder:
    """Measured wall-clock durations of named phases.

    Where :func:`phase_breakdown` *models* the post-election phases, this
    records what actually happened: the audit/tally pipeline wraps each of
    its stages in :meth:`phase` and attaches the resulting dictionary to the
    audit report, so the benchmarks and the engine can report measured
    per-phase seconds next to the modelled ones.  Re-entering a name
    accumulates (a phase may be split across loop iterations).
    """

    timings: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and accumulate it under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def as_dict(self) -> Dict[str, float]:
        """A copy of the accumulated ``{phase name: seconds}`` mapping."""
        return dict(self.timings)

    @property
    def total_s(self) -> float:
        return sum(self.timings.values())


@dataclass(frozen=True)
class PhaseCosts:
    """Per-ballot CPU costs (ms) of the post-election phases."""

    consensus_per_registered_ballot_ms: float = 0.9
    consensus_constant_s: float = 5.0
    push_per_cast_ballot_ms: float = 1.6
    push_constant_s: float = 3.0
    publish_per_cast_ballot_ms: float = 0.7
    publish_constant_s: float = 2.0


@dataclass(frozen=True)
class PhaseDurations:
    """Durations (seconds) of the four phases of Figure 5c."""

    ballots_cast: int
    vote_collection_s: float
    vote_set_consensus_s: float
    push_to_bb_s: float
    publish_result_s: float

    def as_row(self) -> Dict[str, float]:
        return {
            "ballots_cast": self.ballots_cast,
            "vote_collection_s": round(self.vote_collection_s, 1),
            "vote_set_consensus_s": round(self.vote_set_consensus_s, 1),
            "push_to_bb_s": round(self.push_to_bb_s, 1),
            "publish_result_s": round(self.publish_result_s, 1),
        }

    @property
    def total_s(self) -> float:
        return (
            self.vote_collection_s
            + self.vote_set_consensus_s
            + self.push_to_bb_s
            + self.publish_result_s
        )


def phase_breakdown(
    ballots_cast: int,
    registered_ballots: int = 200_000,
    num_vc: int = 4,
    num_options: int = 4,
    vote_collection_throughput: Optional[float] = None,
    cost_model: Optional[CostModel] = None,
    phase_costs: Optional[PhaseCosts] = None,
) -> PhaseDurations:
    """Compute the duration of every phase for a given number of cast ballots."""
    if ballots_cast < 0 or registered_ballots < ballots_cast:
        raise ValueError("cast ballots must be between 0 and the registered ballots")
    costs = phase_costs or PhaseCosts()
    model = cost_model or CostModel(
        database=DatabaseCosts(), num_ballots=registered_ballots, num_options=num_options
    )

    if vote_collection_throughput is None:
        vote_collection_throughput = model.saturated_throughput_estimate(num_vc)
    vote_collection_s = ballots_cast / max(vote_collection_throughput, 1e-9)

    # Vote Set Consensus covers every *registered* ballot (voted or not), but
    # batching spreads the work across the VC machines.
    total_cores = model.machines.total_cores
    consensus_s = (
        costs.consensus_constant_s
        + registered_ballots * costs.consensus_per_registered_ballot_ms / 1000.0 / total_cores
    )
    push_s = (
        costs.push_constant_s
        + ballots_cast * costs.push_per_cast_ballot_ms / 1000.0 / model.machines.num_machines
    )
    publish_s = (
        costs.publish_constant_s
        + ballots_cast * costs.publish_per_cast_ballot_ms / 1000.0 / model.machines.num_machines
    )
    return PhaseDurations(
        ballots_cast=ballots_cast,
        vote_collection_s=vote_collection_s,
        vote_set_consensus_s=consensus_s,
        push_to_bb_s=push_s,
        publish_result_s=publish_s,
    )


def phase_sweep(
    cast_counts: Sequence[int],
    registered_ballots: int = 200_000,
    num_vc: int = 4,
    num_options: int = 4,
) -> List[PhaseDurations]:
    """Figure 5c: the breakdown for several numbers of cast ballots."""
    return [
        phase_breakdown(
            cast,
            registered_ballots=registered_ballots,
            num_vc=num_vc,
            num_options=num_options,
        )
        for cast in cast_counts
    ]

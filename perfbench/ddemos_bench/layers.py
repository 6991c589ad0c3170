"""Per-layer metrics of a traced run, derived from the tracer and the outcomes.

Times and counts are for the one traced election (engine) or ``run_sharded``
call (scale).  Worker-side time of the parallel scale path is summed over
processes, so a layer's time can exceed the wall time there.  A metric whose
layer did not run on the workload, or whose wrapped target no longer exists,
is absent (``None``).
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Tuple

from ddemos_bench.tracing import KEY_LAYERS, LAYERS, Tracer

AUDIT_CHECKS = ("read_bb", "structural", "openings", "proofs", "tally", "delegations")

#: every per-layer metric, in report order, with its unit
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("crypto.modexp_calls", "count"),
    ("crypto.modexp_per_ballot", "count"),
    ("crypto.modexp_s", "s"),
    ("crypto.batch_equations", "count"),
    ("crypto.batch_verify_s", "s"),
    ("crypto.hash_calls", "count"),
    ("crypto.hash_s", "s"),
    ("ea.setup_s", "s"),
    ("codec.signing_bytes_calls", "count"),
    ("codec.signing_bytes_s", "s"),
    ("codec.encode_calls", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes_encoded", "bytes"),
    ("net.messages_per_ballot", "messages"),
    ("net.bytes_per_ballot", "bytes"),
    ("net.events", "count"),
    ("net.loop_self_s", "s"),
    ("vc.on_message_calls", "count"),
    ("vc.on_message_s", "s"),
    ("admission.endorse_batches", "count"),
    ("admission.items_per_batch", "count"),
    ("admission.batch_verify_s", "s"),
    ("admission.shed_ratio", "fraction"),
    ("admission.ucert_cache_hits", "count"),
    ("consensus.messages_per_ballot", "messages"),
    ("consensus.instances", "count"),
    ("consensus.superblock_fallback_ratio", "fraction"),
    ("consensus.cluster_s", "s"),
    ("trustee.submission_s", "s"),
    ("bb.majority_tally_s", "s"),
    ("audit.verify_all_s", "s"),
    *((f"audit.check_{check}_s", "s") for check in AUDIT_CHECKS),
    ("shard.ea_table_s", "s"),
    ("shard.tally_s", "s"),
    ("shard.slice_s", "s"),
    ("shard.admission_self_s", "s"),
    ("shard.hashes_per_ballot", "count"),
    ("shard.frame_decode_s", "s"),
    ("shard.merge_prepare_s", "s"),
    ("shard.commit_verify_s", "s"),
    ("pool.warmup_s", "s"),
    ("pool.queue_wait_s", "s"),
    ("pool.worker_busy_ratio", "fraction"),
    ("pool.peak_inflight", "count"),
    ("pool.slowest_shard_s", "s"),
    *((f"self.{layer}_s", "s") for layer in LAYERS),
    ("trace.untraced_ballots_per_s", "ballots/s"),
    ("trace.traced_ballots_per_s", "ballots/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def layer_metrics(
    pipeline: str, tracer: Tracer, result, untraced_bps: float
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced iteration (``None`` = absent)."""
    ballots = result.ballots
    calls, inclusive, self_time, counters = (
        tracer.calls, tracer.inclusive, tracer.self_time, tracer.counters
    )

    # A key with no calls is absent: its layer did not run, or its wrapped
    # target no longer exists.
    def timed(key: str) -> Optional[float]:
        return inclusive[key] if calls.get(key) else None

    def counted(key: str) -> Optional[float]:
        return calls.get(key) or None

    m: Dict[str, Optional[float]] = {name: None for name, _ in PER_LAYER}
    m["crypto.modexp_calls"] = counted("crypto.modexp")
    m["crypto.modexp_per_ballot"] = _ratio(calls.get("crypto.modexp", 0), ballots) or None
    m["crypto.modexp_s"] = timed("crypto.modexp")
    if calls.get("crypto.batch_verify"):
        m["crypto.batch_equations"] = counters["crypto.batch_equations"]
    m["crypto.batch_verify_s"] = timed("crypto.batch_verify")
    m["crypto.hash_calls"] = counted("crypto.hash")
    m["crypto.hash_s"] = timed("crypto.hash")
    m["codec.signing_bytes_calls"] = counted("codec.signing_bytes")
    m["codec.signing_bytes_s"] = timed("codec.signing_bytes")
    m["codec.encode_calls"] = counted("codec.encode")
    m["codec.encode_s"] = timed("codec.encode")
    m["codec.decode_s"] = timed("codec.decode")
    if calls.get("codec.encode"):
        m["codec.bytes_encoded"] = counters["codec.bytes_encoded"]
    m["consensus.cluster_s"] = timed("consensus.cluster")

    if pipeline == "engine":
        stats = result.stats
        consensus, admission = stats["consensus"], stats["admission"]
        m["ea.setup_s"] = timed("ea.setup")
        m["net.messages_per_ballot"] = result.messages / ballots
        m["net.bytes_per_ballot"] = stats["bytes_sent"] / ballots or None
        if calls.get("net.run"):
            m["net.events"] = counters["net.events"]
            m["net.loop_self_s"] = self_time["net.run"]
        m["vc.on_message_calls"] = counted("vc.on_message")
        m["vc.on_message_s"] = timed("vc.on_message")
        batches = admission.get("endorse_batches", 0)
        if batches:
            m["admission.endorse_batches"] = batches
            m["admission.items_per_batch"] = (
                admission.get("endorsements_batch_verified", 0) / batches
            )
            m["admission.batch_verify_s"] = timed("admission.flush")
        m["admission.shed_ratio"] = _ratio(admission.get("shed", 0), admission.get("requests", 0))
        m["admission.ucert_cache_hits"] = admission.get("ucert_cache_hits")
        m["consensus.messages_per_ballot"] = stats["consensus_messages"] / ballots
        m["consensus.instances"] = (
            consensus.get("per_ballot_instances", 0) + consensus.get("superblocks", 0)
        )
        m["consensus.superblock_fallback_ratio"] = _ratio(
            consensus.get("superblocks_fallback", 0), consensus.get("superblocks", 0)
        )
        m["trustee.submission_s"] = timed("trustee.submission")
        m["bb.majority_tally_s"] = timed("bb.majority_tally")
        m["audit.verify_all_s"] = timed("audit.verify_all")
        for check in AUDIT_CHECKS:
            m[f"audit.check_{check}_s"] = stats["audit_timings"].get(check)
    else:
        fast, fallback = result.stats["superblocks_fast"], result.stats["superblocks_fallback"]
        m["consensus.messages_per_ballot"] = result.messages / ballots
        m["consensus.instances"] = fast + fallback
        m["consensus.superblock_fallback_ratio"] = _ratio(fallback, fast + fallback)
        m["shard.ea_table_s"] = timed("shard.ea_table")
        m["shard.tally_s"] = timed("shard.tally")
        m["shard.slice_s"] = timed("shard.slice")
        if calls.get("shard.slice"):
            m["shard.admission_self_s"] = self_time["shard.slice"]
            slice_hashes = sum(
                span["counts"].get("crypto.hash", 0)
                for span in tracer.spans
                if span["name"] == "shard.slice"
            )
            m["shard.hashes_per_ballot"] = slice_hashes / ballots
        m["shard.frame_decode_s"] = timed("shard.frame_decode")
        m["shard.merge_prepare_s"] = timed("shard.merge_prepare")
        m["shard.commit_verify_s"] = timed("shard.commit_verify")
        if result.stats["workers"] > 1:
            m.update(_pool_metrics(tracer, result))

    for layer in LAYERS:
        total = sum(
            seconds for key, seconds in self_time.items() if KEY_LAYERS.get(key) == layer
        )
        m[f"self.{layer}_s"] = total or None

    traced_bps = result.ballots / result.wall_s
    m["trace.untraced_ballots_per_s"] = untraced_bps
    m["trace.traced_ballots_per_s"] = traced_bps
    m["trace.overhead_ratio"] = untraced_bps / traced_bps
    m["trace.spans"] = len(tracer.spans)
    return m


def _pool_metrics(tracer: Tracer, result) -> Dict[str, Optional[float]]:
    """Pool metrics from worker spans; the program's shard_stats are the fallback."""
    m: Dict[str, Optional[float]] = {}
    slices = [s for s in tracer.spans if s["name"].startswith("pool.slice")]
    # Warm-up: from the driver's start to the first slice starting in a worker
    # (pool creation, worker fork and initializer).
    driver = next((s for s in tracer.spans if s["name"] == "shard.driver_run"), None)
    if driver is not None and slices:
        m["pool.warmup_s"] = min(s["start"] for s in slices) - driver["start"]
    waits = tracer.samples.get("pool.queue_wait")
    m["pool.queue_wait_s"] = statistics.mean(waits) if waits else None
    m["pool.peak_inflight"] = tracer.counters["pool.peak_inflight"] or None
    if len(slices) == result.shards:
        durations = [s["end"] - s["start"] for s in slices]
    else:  # worker spans did not arrive: fall back to the program's own timings
        durations = result.shard_durations
    m["pool.slowest_shard_s"] = max(durations)
    m["pool.worker_busy_ratio"] = sum(durations) / (result.stats["workers"] * result.wall_s)
    return m

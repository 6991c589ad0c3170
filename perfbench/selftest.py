"""Self-tests of the benchmark itself (tiny sizes; well under a minute).

Run from the repository root::

    python3 perfbench/selftest.py

The file name deliberately does not match ``test_*.py``: these tests check
the benchmark, not the program, and stay out of the repository's suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from ddemos_bench import bench, layers, tracing, workloads  # noqa: E402

from repro.api import ElectionEngine  # noqa: E402

TINY = workloads.Sizes(voters=6, ballots=2_000, shards=4, warmup_voters=4, warmup_ballots=400)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section: str) -> list:
    return [metric["name"] for metric in BENCHMARK[section]]


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_match_the_code(self):
        # scale_seq still runs (and is scale_par's cross-check sibling) but is
        # left out of BENCHMARK.json: its figures follow the host's
        # single-thread speed too closely to hold the bounds (README.md).
        gated = [w for w in workloads.WORKLOADS if w != "scale_seq"]
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], gated)
        self.assertEqual(names("end_to_end"), list(bench.GATED))
        self.assertEqual(names("per_layer"), [name for name, _ in layers.PER_LAYER])
        units = {name: unit for name, (unit, _) in workloads.END_TO_END.items()}
        for metric in BENCHMARK["end_to_end"]:
            self.assertEqual(metric["unit"], units[metric["name"]])
        for metric, (_, unit) in zip(BENCHMARK["per_layer"], layers.PER_LAYER, strict=True):
            self.assertEqual(metric["unit"], unit)


class EveryWorkloadTest(unittest.TestCase):
    def test_untraced_pass(self):
        for workload, spec in workloads.WORKLOADS.items():
            with self.subTest(workload=workload):
                out = bench.run(workload, seed=3, seconds=0.01, trace=False, sizes=TINY)
                self.assertTrue(out.correct, out.report["problems"])
                self.assertEqual(out.failed, 0)
                line = json.loads(out.result_line(names("end_to_end")))
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(list(line["metrics"]), names("end_to_end"))
                for name, (unit, pipelines) in workloads.END_TO_END.items():
                    value = out.metrics[name][0]
                    if spec.pipeline not in pipelines:
                        self.assertIsNone(value, name)
                    elif name != "failed_ratio":
                        self.assertGreater(value, 0, name)

    def test_traced_pass(self):
        own_pid = os.getpid()
        loaded = {
            "engine_paper": ["ea.setup_s", "codec.encode_s", "net.bytes_per_ballot",
                             "vc.on_message_s", "audit.verify_all_s", "self.consensus_s"],
            "engine_batched": ["ea.setup_s", "admission.items_per_batch",
                               "admission.batch_verify_s", "consensus.superblock_fallback_ratio"],
            "scale_seq": ["crypto.hash_calls", "shard.slice_s", "shard.hashes_per_ballot",
                          "consensus.cluster_s"],
            "scale_par": ["shard.frame_decode_s", "pool.warmup_s", "pool.queue_wait_s",
                          "pool.worker_busy_ratio", "pool.peak_inflight"],
        }
        bypassed = {
            "engine_paper": ["admission.items_per_batch", "shard.slice_s", "pool.warmup_s"],
            "engine_batched": ["net.bytes_per_ballot", "consensus.cluster_s"],
            "scale_seq": ["ea.setup_s", "pool.worker_busy_ratio", "shard.frame_decode_s"],
            "scale_par": ["ea.setup_s", "vc.on_message_s"],
        }
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                out = bench.run(workload, seed=4, seconds=0.01, trace=True, sizes=TINY)
                self.assertTrue(out.correct, out.report["problems"])
                self.assertEqual(list(out.metrics), names("per_layer"))
                self.assertEqual(out.report["missing_targets"], [])
                for name in loaded[workload]:
                    self.assertIsNotNone(out.metrics[name][0], name)
                for name in bypassed[workload]:
                    self.assertIsNone(out.metrics[name][0], name)
                self.assertGreater(out.metrics["trace.overhead_ratio"][0], 0)
                if workload == "scale_par":
                    worker_spans = [s for s in out.report["spans"] if s["pid"] != own_pid]
                    self.assertTrue(any(s["name"] == "shard.slice" for s in worker_spans))
                # every wrapper is gone again
                import repro.crypto.utils
                import repro.shard.shard_runner
                self.assertFalse(hasattr(repro.crypto.utils.sha256, "__wrapped__"))
                self.assertFalse(hasattr(repro.shard.shard_runner.sha256, "__wrapped__"))

    def test_exact_metrics_repeat_at_a_fixed_seed(self):
        for workload in ("engine_paper", "scale_seq"):
            for trace, seconds in ((False, 0.01), (False, 1.0), (True, 0.01)):
                with self.subTest(workload=workload, trace=trace, seconds=seconds):
                    first = bench.run(workload, seed=5, seconds=0.01, trace=trace, sizes=TINY)
                    again = bench.run(workload, seed=5, seconds=seconds, trace=trace,
                                      sizes=TINY)
                    for name in first.report["exact_at_fixed_seed"]:
                        self.assertEqual(first.metrics[name], again.metrics[name], name)


class GateRejectsTamperingTest(unittest.TestCase):
    def test_tampered_expected_tally(self):
        spec = workloads.engine_spec("engine_batched", 11, 6)
        choices = workloads.voter_choices(11, 6)
        outcome = ElectionEngine(spec).run(choices)
        self.assertEqual(workloads.engine_problems(outcome, spec.options, choices), ([], 0))
        other = next(o for o in workloads.OPTIONS if o != choices[0])
        tampered = [other] + choices[1:]
        problems, _ = workloads.engine_problems(outcome, spec.options, tampered)
        self.assertTrue(any("tally" in p for p in problems), problems)

    def test_tampered_outcome_hash(self):
        runner = workloads.Runner("engine_paper", 12, TINY)
        first = runner.iteration(0)
        self.assertEqual(runner.cross_check(first), [])
        tampered = dataclasses.replace(first, outcome_hash="0" * 64)
        self.assertTrue(runner.cross_check(tampered))

    def test_tampered_commit_frame(self):
        runner = workloads.Runner("scale_par", 13, TINY)
        first = runner.iteration(0)
        self.assertEqual(runner.cross_check(first), [])
        flipped = first.frame[:-1] + bytes([first.frame[-1] ^ 1])
        tampered = dataclasses.replace(first, frame=flipped)
        self.assertTrue(runner.cross_check(tampered))
        self.assertTrue(workloads.consistency_problems("scale", [first, tampered]))


class MissingTargetTest(unittest.TestCase):
    def test_missing_targets_are_absent_layers(self):
        gone = (
            tracing.Target("repro.shard.no_such_module.Driver.run", "shard.slice",
                           "shard.shard_runner", span=True),
            tracing.Target("repro.shard.shard_runner.ShardRunner.no_such_method",
                           "shard.ea_table", "shard.shard_runner", span=True),
        )
        kept = tuple(t for t in tracing.TARGETS if t.key not in ("shard.slice", "shard.ea_table"))
        with mock.patch.object(tracing, "TARGETS", kept + gone):
            out = bench.run("scale_seq", seed=6, seconds=0.01, trace=True, sizes=TINY)
        self.assertTrue(out.correct, out.report["problems"])
        self.assertEqual(out.report["missing_targets"], [t.path for t in gone])
        self.assertIsNone(out.metrics["shard.slice_s"][0])
        self.assertIsNone(out.metrics["shard.ea_table_s"][0])
        self.assertIsNotNone(out.metrics["crypto.hash_calls"][0])


if __name__ == "__main__":
    unittest.main()

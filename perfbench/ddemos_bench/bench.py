"""One benchmark run: a workload, a seed, a time budget, traced or not.

An untraced run (``trace=False``) warms up, runs the workload's elections
back to back for ``seconds``, cross-checks the first election against the
sibling workload, and reports the end-to-end metrics.  A traced run runs the
first election with every layer wrapped, then ``seconds / 2`` of untraced
elections, and reports the per-layer metrics plus the tracing overhead.
Tracing never runs during an untraced run's timed pass, and memory is read
from the kernel (the run process's high-water mark, the pool workers'
private pages), never from tracemalloc.
"""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ddemos_bench import layers, workloads
from ddemos_bench.tracing import Tracer
from ddemos_bench.workloads import FULL, WORKLOADS, Runner, Sizes, timed_loop

#: the end-to-end metrics every workload reports and the driver gates
GATED = ("ballots_per_s", "setup_s", "messages_per_ballot", "peak_rss_mb")
#: extra set-up samples per scale election.  A sharded election sets up
#: once in 2-4 s, too few samples in one run for a steady median; a probe
#: costs about 0.3 s sequentially and 0.7 s on the pool, which drains its
#: queued slices before it shuts down.
SETUP_PROBES = {"scale_seq": 3, "scale_par": 1}


@dataclass
class RunOutput:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit); ``None`` marks an absent metric
    metrics: Dict[str, tuple]
    report: Dict[str, object] = field(default_factory=dict)

    def result_line(self, names: List[str]) -> str:
        """The final JSON line: exactly ``names``, absent metrics as 0."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0] or 0.0, "unit": self.metrics[name][1]}
                for name in names
            },
        })


def _iterate(runner: Runner, seconds: float, first_index: int = 0,
             setup_probes: int = 0) -> list:
    def body(index: int):
        gc.collect()
        return runner.iteration(index, setup_probes=setup_probes)

    return timed_loop(seconds, body, first_index)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> RunOutput:
    """Run one workload and check its outputs."""
    info = WORKLOADS[workload]
    runner = Runner(workload, seed, sizes)
    runner.warm_up()
    report: Dict[str, object] = {"workload": workload, "seed": seed, "seconds": seconds}

    if trace:
        # The traced election is the run's first, so per-layer counts repeat
        # exactly at a fixed seed; the untraced ones that follow give the
        # overhead baseline.
        tracer = Tracer(workload).install()
        try:
            gc.collect()
            traced = runner.iteration(0, tracer)
        finally:
            tracer.uninstall()
        untraced = _iterate(runner, seconds / 2, first_index=1)
        ok = [r for r in untraced if not r.problems]
        untraced_bps = statistics.median(r.ballots / r.wall_s for r in ok) if ok else 0.0
        values = (
            layers.layer_metrics(info.pipeline, tracer, traced, untraced_bps)
            if not traced.problems else {name: None for name, _ in layers.PER_LAYER}
        )
        units = dict(layers.PER_LAYER)
        metrics = {name: (values[name], units[name]) for name, _ in layers.PER_LAYER}
        report["missing_targets"] = tracer.missing
        report["spans"] = tracer.spans
        results = [traced] + untraced
    else:
        results = _iterate(runner, seconds, setup_probes=SETUP_PROBES.get(workload, 0))
        ok = [r for r in results if not r.problems]
        values = workloads.end_to_end(info.pipeline, ok) if ok else {}
        metrics = {
            name: (values.get(name) if info.pipeline in pipelines else None, unit)
            for name, (unit, pipelines) in workloads.END_TO_END.items()
        }
        if info.pipeline == "engine" and ok:
            report["receipt_sim_samples"] = len(ok[0].receipt_sim_s)

    problems = workloads.consistency_problems(info.pipeline, results)
    first = results[0]
    problems += runner.cross_check(first)

    attempted, failed = workloads.attempted_failed(info.pipeline, results)
    if not trace:
        metrics["failed_ratio"] = (failed / attempted, metrics["failed_ratio"][1])
    report.update({
        "pipeline": info.pipeline,
        "iterations": len(results),
        "iteration_wall_s": [r.wall_s for r in results],
        "setup_samples_s": [s for r in results for s in r.setup_samples],
        "problems": problems,
        "absent": sorted(name for name, (value, _) in metrics.items() if value is None),
        "exact_at_fixed_seed": [m for m in workloads.EXACT_AT_FIXED_SEED if m in metrics],
        "not_exact": [m for m in workloads.NOT_EXACT if m in metrics],
        "cross_checked_with": info.sibling,
        "first_output": (
            first.outcome_hash if info.pipeline == "engine" else first.frame.hex()
        ),
    })
    return RunOutput(not problems, attempted, failed, metrics, report)


def write_artifacts(out_dir: Path, output: RunOutput, stamp: Dict[str, object],
                    trace: bool) -> Path:
    """Write the run report (and, for traced runs, the spans as JSON lines)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{output.report['workload']}-seed{output.report['seed']}-trace{int(trace)}"
    report = dict(output.report, stamp=stamp)
    spans = report.pop("spans", None)
    if spans is not None:
        spans_path = out_dir / f"{tag}.spans.jsonl"
        with open(spans_path, "w") as sink:
            for span in spans:
                sink.write(json.dumps(span) + "\n")
        report["spans_file"] = spans_path.name
        report["span_count"] = len(spans)
    report["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in output.metrics.items()
    }
    path = out_dir / f"{tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path

"""D-DEMOS benchmark: one command for the full-crypto engine and the scale path.

Run from the repository root::

    python3 perfbench/run.py --workload engine_paper --seed 1 --seconds 30 --trace 0

Workloads: ``engine_paper``, ``engine_batched``, ``scale_seq``, ``scale_par``
(see ``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs half the budget untraced and half traced and prints the
per-layer metrics.  Every applicable metric is printed by name and unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.  The
full report (environment stamp, absent metrics, spans as JSON lines) lands
in ``perfbench/results/``.

Exit status: 0 when every output is correct, 1 when a correctness gate
fails (the result line then says ``"correct": false``), 2 when the program
under test cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine_paper", "engine_batched", "scale_seq", "scale_par"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is not in this checkout ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    from ddemos_bench import bench
    from ddemos_bench.environment import stamp

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    output = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    environment = stamp(ROOT, args.seed)
    report_path = bench.write_artifacts(HERE / "results", output, environment, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} iterations={output.report['iterations']} "
          f"report={report_path.relative_to(ROOT)}")
    print(f"# stamp {json.dumps(environment)}")
    for name, (value, unit) in output.metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        note = ("exact at fixed seed" if name in output.report["exact_at_fixed_seed"]
                else "not exact" if name in output.report["not_exact"] else "")
        print(f"{name:40s} {shown:>14s} {unit:10s} {note}".rstrip())
    for problem in output.report["problems"]:
        print(f"FAILED: {problem}")
    print(output.result_line(names))
    return 0 if output.correct else 1


if __name__ == "__main__":
    sys.exit(main())

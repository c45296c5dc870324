"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the library is imported from
``src/`` next to this directory. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. An
untraced run (``--trace 0``) reports every end-to-end metric; a traced
run (``--trace 1``) wraps the library's layer boundaries, reports every
per-layer metric and writes its spans and layer table under
``.perfbench/<workload>-seed<n>/``. A failed output check prints
``"correct": false`` and exits with status 1; a checkout without the
library exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness, layers  # noqa: E402

#: name, unit, better, bound (share of the parent's median a change may
#: worsen it by). Per-workload meaning: README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("quality", "ratio", "higher", 0.1),
    ("success_ratio", "ratio", "higher", 0.1),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("rate_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _layer_table(tracer) -> list[str]:
    from perfbench.spans import self_times_under, totals

    rows = ["span\tcalls\tinclusive_s\tself_s"]
    for name, (calls, inclusive, own) in sorted(totals(tracer.spans).items()):
        rows.append(f"{name}\t{calls}\t{inclusive:.6f}\t{own:.6f}")
    under = self_times_under(tracer.spans, "update.apply")
    if under:
        rows.append("")
        rows.append("self time inside update.apply\tseconds")
        for name, own in sorted(under.items(), key=lambda kv: -kv[1]):
            rows.append(f"{name}\t{own:.6f}")
    return rows


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread per process, set before numpy loads and inherited by
    # spawned ranks. With the default (a pool per process sized to all
    # cores) two ranks and the coordinator oversubscribe a 2-core host and
    # train-dist jobs flip between two speeds (rounds of 40 or 130 ms);
    # the traced run still times that default as
    # distributed.default_threads_job_s.
    os.environ.update(dict.fromkeys(harness.BLAS_THREAD_VARS, "1"))
    try:
        import_s = harness.import_repro()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2

    from perfbench import workloads
    from perfbench.spans import Tracer

    run = harness.Run(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(args.seed, args.seconds, import_s, run, tracer)
    t0 = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](ctx)
    finally:
        stubborn = harness.stop_children()
    wall = time.perf_counter() - t0
    run.check("no_child_process_left", not stubborn, f"pids {stubborn}")

    if tracer is not None:
        out = harness.ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out / "spans.jsonl")
        table = _layer_table(tracer)
        (out / "layers.tsv").write_text("\n".join(table) + "\n")
        for row in table:
            print("# " + row)
        units = layers.units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in run.layers.items()}
    else:
        if run.metrics:
            run.metric("success_ratio", 1.0 - run.error_ratio, "ratio", run.attempted)
        metrics = {
            name: {"value": run.metrics[name][0], "unit": unit}
            for name, unit, _, _ in END_TO_END if name in run.metrics
        }
        cal = ctx.calibration
        if cal.samples:
            print(f"# host speed {cal.speed:.3f} of the reference host "
                  f"(calibration pass {harness.median(cal.samples) * 1e3:.2f} ms, "
                  f"reference {harness.REFERENCE_LOOP_S * 1e3:.2f} ms, "
                  f"{len(cal.samples)} passes)")
        for name, (value, unit, samples, raw) in run.metrics.items():
            note = f", as measured {raw:.6g}" if raw != value else ""
            print(f"# {name} = {value:.6g} {unit} (n={samples}{note})")
        for name, (value, unit, samples) in run.reports.items():
            print(f"# as measured: {name} = {value:.6g} {unit} (n={samples})")
    print(f"# {args.workload} seed {args.seed}: {wall:.1f}s wall, "
          f"{harness.environment_note()}, error_ratio "
          f"{run.error_ratio:.4f}, checks {run.checks}")
    for note in run.notes:
        print(f"# {note}")
    complete = bool(metrics) and (
        len(metrics) == (len(layers.LAYER_METRICS) if tracer else len(END_TO_END)))
    correct = run.correct and complete
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines go first; the last line of stdout is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Full
results (run context, calibration, extra statistics, and for traced
runs the span file and the layer self-time table) are written to
``perfbench/out/<workload>-s<seed>-t<trace>/``.

Exit codes: 0 when the run finished (``correct`` says whether it passed
its checks), 2 when it could not run at all, e.g. outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("fig3_sweep", "serve_warm", "sharded_cold")

#: The gated end-to-end metrics: every workload reports each of them.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_mps", "1/s"),
    ("map_ms_geomean", "ms"),
    ("cpu_ms_per_mapping", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
)

#: End-to-end figures printed (and kept in result.json) but not gated:
#: they apply to some workloads only, or read too unsteadily on a shared
#: host (a percentile over the heterogeneous sweep).  None = not
#: reported, e.g. a p95 without ten samples beyond it.
REPORTED = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("wh_vs_def", "ratio"),
    ("mc_vs_def", "ratio"),
    ("mmc_vs_def", "ratio"),
)


def _load(workload: str):
    import importlib

    return importlib.import_module(f"perfbench.{workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child still gets drained.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        common.repo_paths()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import layers
    from perfbench.trace import Tracer, format_table, layer_table

    run_dir = os.path.join(
        common.HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tmp = common.private_tmp(f"{args.workload}-s{args.seed}")
    trace = bool(args.trace)
    try:
        shm_before = common.shm_segments()
        context = common.run_context()
        context["calibration_before_s"] = common.calibrate()
        t_run = time.perf_counter()
        tracer = Tracer(install=layers.install)
        result = _load(args.workload).run(
            args.seed, args.seconds, trace, run_dir, tracer
        )
        tracer.stop()
        context["run_s"] = time.perf_counter() - t_run
        context["calibration_after_s"] = common.calibrate()
        context["loadavg_after"] = list(os.getloadavg())
        context["store_tier"] = result.pop("store_tier")
        leaked = sorted(common.shm_segments() - shm_before)
        context["shm_segments_before"] = len(shm_before)
        context["shm_segments_leaked"] = leaked
    finally:
        # On every path out, nothing the run started may outlive it.
        stray = common.reap_descendants()
        common.cleanup_tmp(tmp)

    problems = list(result.pop("checks")) + list(result.pop("problems", []))
    if stray:
        problems.append(f"processes left running after the run: {stray}")
    if leaked:
        problems.append(f"{len(leaked)} shared-memory segments leaked: {leaked[:5]}")
    mismatches = result.pop("mismatches")
    window_agg = result.pop("window_agg")
    with open(os.path.join(run_dir, "samples.json"), "w") as fh:
        json.dump(result.pop("samples", []), fh)

    e2e = result["end_to_end"]
    if trace:
        table = layer_table(window_agg, result["traced_wall_s"])
        values = dict(result["layer_values"])
        values["trace.wall_s"] = table["wall_s"]
        values["trace.residual_s"] = table["residual_s"]
        traced_tp = result["throughput_traced"]
        if traced_tp > 0:
            values["trace.overhead_pct"] = (
                result["throughput_untraced"] / traced_tp - 1.0
            ) * 100.0
        metrics = layers.finish_per_layer(values)
        with open(os.path.join(run_dir, "layers.json"), "w") as fh:
            json.dump(
                {
                    "table": table,
                    "throughput_untraced_mps": result["throughput_untraced"],
                    "throughput_traced_mps": traced_tp,
                    "overhead_pct": values.get("trace.overhead_pct"),
                },
                fh,
                indent=1,
            )
        with open(os.path.join(run_dir, "layers.txt"), "w") as fh:
            fh.write(format_table(table) + "\n")
        tracer.write_spans(os.path.join(run_dir, "spans.jsonl"))
        print(format_table(table))
        print(
            f"tracing overhead: {values.get('trace.overhead_pct', 0.0):+.2f} % "
            f"(untraced {result['throughput_untraced']:.3f} vs traced "
            f"{traced_tp:.3f} mappings/s)"
        )
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in END_TO_END}

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        for name, unit in REPORTED:
            if name in e2e:
                value = e2e[name]
                shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:.6g} {unit}"
                print(f"{args.workload} {name} = {shown} (not gated)")
    for key, value in result.get("extra", {}).items():
        print(f"{args.workload} {key}: {json.dumps(value, default=str)}")
    for line in mismatches[:20]:
        print(f"MISMATCH {line}")
    for line in problems:
        print(f"CHECK FAILED {line}")

    correct = result["failed"] == 0 and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "end_to_end": e2e,
        "extra": result.get("extra", {}),
        "mismatches": mismatches,
        "problems": problems,
        "context": context,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

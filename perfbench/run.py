"""Repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload archive-serial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the codec is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json measured
with tracing off; ``--trace 1`` runs the workload untraced for half the
seconds (the tracing-overhead baseline), then traced, prints the
per-layer metrics and writes a Chrome trace to ``.perfbench_out/``.  The last line of standard output is the JSON
result; a readable table goes to standard error.

Workloads (see ``codec_workloads.py`` and ``serve_workload.py``):
``archive-serial``, ``rated-procs``, ``serve-mixed``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("archive-serial", "rated-procs", "serve-mixed")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no codec sources at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, src)
    return True


def _write_trace(tracer, workload: str, seed: int, extra: dict) -> str:
    from harness import out_dir
    from repro.obs.export import chrome_trace

    doc = chrome_trace(tracer)
    doc["otherData"] = extra
    path = os.path.join(out_dir(ROOT), f"{workload}-seed{seed}.trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _environment() -> str:
    import numpy

    return f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}"


def run_codec(args, tally):
    from codec_workloads import CodecBench, RATED_WORKERS
    from layers import attribute, codec_layer_metrics

    bench = CodecBench(args.workload, args.seed, tally)
    try:
        setup_s = bench.setup()
        if not args.trace:
            session = bench.run(args.seconds)
            notes = {"digest": bench.digest, "slowdown": session.speed.slowdown,
                     "setup_slowdown": bench.setup_speed.slowdown}
            return bench.end_to_end(session, setup_s), notes, None
        from repro.obs import Tracer, amdahl_report

        plain = bench.run(args.seconds / 2)
        tracer = Tracer()
        traced = bench.run(args.seconds / 2, tracer=tracer)
    finally:
        bench.close()
    bench.quality()
    workers = RATED_WORKERS if bench.rated else 1
    att = attribute(tracer, workers)
    for problem in att.accounting_errors:
        tally.check(False, f"trace accounting: {problem}")
    layers = codec_layer_metrics(
        att, amdahl_report(tracer, n_cpus=2).sequential_fraction, traced.exact,
        traced.speed.slowdown,
    )
    overhead = bench.cycle_wall(traced) / bench.cycle_wall(plain) - 1.0
    notes = {"digest": bench.digest, "overhead": overhead,
             "slowdown": traced.speed.slowdown,
             "traced_wall_s": sum(att.wall.values()),
             "attributed_s": sum(att.seconds.values())}
    return layers, notes, tracer


def run_serve(args, tally):
    from harness import median
    from serve_workload import ServeBench, serve_run

    bench = ServeBench(args.seed, tally)
    setup_s, plain, traced, tracer, rss = asyncio.run(
        serve_run(bench, args.seconds, bool(args.trace))
    )
    if not args.trace:
        notes = {"digest": bench.digest, "slowdown": plain.speed.slowdown}
        return bench.end_to_end(plain, setup_s, rss), notes, None
    bench.quality()
    overhead = (
        median(bench.service_ms(traced)) / traced.speed.slowdown
        / (median(bench.service_ms(plain)) / plain.speed.slowdown) - 1.0
    )
    return bench.layer_metrics(traced), {"digest": bench.digest, "overhead": overhead,
                                         "slowdown": traced.speed.slowdown}, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not _import_program():
        return 2
    from harness import Tally, emit, stop_resource_tracker
    from metrics import fill_per_layer

    # A terminated run still unwinds, so its pools close and are reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tally = Tally()
    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {_environment()}", file=sys.stderr)
    try:
        if args.workload == "serve-mixed":
            metrics, notes, tracer = run_serve(args, tally)
        else:
            metrics, notes, tracer = run_codec(args, tally)
    finally:
        stop_resource_tracker()
    digest = notes.pop("digest").hexdigest()
    notes["digest"] = digest
    if args.trace:
        metrics = fill_per_layer(metrics, notes.pop("overhead"))
        notes["trace"] = _write_trace(
            tracer, args.workload, args.seed,
            {"workload": args.workload, "seed": args.seed, "digest": digest,
             "environment": _environment(), **notes},
        )
    emit(tally, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())

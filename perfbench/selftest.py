"""Sensitivity self-test: a handicap must show up where it was put.

    python3 perfbench/selftest.py [--seed 1] [--seconds 1]

Runs ``rated-procs`` three ways on one set of inputs and one warm pool:
as is, with a delay wrapped around R/D allocation (the ``rate`` layer),
and with a delay before every tier-1 pool dispatch (the ``core`` layer).
Each handicap must move its end-to-end metric by more than that
metric's bound in BENCHMARK.json, and the per-layer time that grew most
(in seconds per megapixel, against the unhandicapped traced run) must
belong to the handicapped layer.  Exits 0 when both hold for both handicaps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seconds added to every R/D allocation round, at the reference speed.
RATE_DELAY_S = 0.4
#: Seconds added before every tier-1 pool dispatch, at the reference speed.
DISPATCH_DELAY_S = 0.1


@contextmanager
def slow_rate_allocation(delay: float):
    """Delay every ``allocate_layers`` call the encoder makes."""
    import repro.codec.encoder as encoder

    original = encoder.allocate_layers

    def slow(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    encoder.allocate_layers = slow
    try:
        yield
    finally:
        encoder.allocate_layers = original


def slow_dispatch(delay: float):
    """A ``wrap`` for the pool: sleep before each tier-1 ``map_shares``."""
    from repro.core.backend import ExecutionBackend

    class SlowDispatch(ExecutionBackend):
        def __init__(self, inner) -> None:
            super().__init__(inner.n_workers)
            self.inner = inner
            self.name = inner.name

        def sweep(self, *args, **kwargs):
            return self.inner.sweep(*args, **kwargs)

        def map_shares(self, *args, **kwargs):
            time.sleep(delay)
            return self.inner.map_shares(*args, **kwargs)

    return SlowDispatch


def measure(bench, seconds: float, setup_s: float, wrap=None):
    """(end-to-end metrics untraced, per-layer metrics traced)."""
    from layers import attribute, codec_layer_metrics
    from repro.obs import Tracer

    e2e = bench.end_to_end(bench.run(seconds, wrap=wrap), setup_s)
    tracer = Tracer()
    traced = bench.run(seconds, tracer=tracer, wrap=wrap)
    layers = codec_layer_metrics(
        attribute(tracer, 2), 0.0, traced.exact, traced.speed.slowdown
    )
    return e2e, layers


def top_growth(base: dict, handicapped: dict) -> str:
    """Time-per-Mpx layer metric that absorbed the most added time."""
    grown = {
        name: value - base[name][0]
        for name, (value, unit) in handicapped.items() if unit == "s/Mpx"
    }
    return max(grown, key=grown.get)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="per session; every session finishes one full cycle")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from codec_workloads import CodecBench
    from harness import Tally, stop_resource_tracker

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    tally = Tally()
    bench = CodecBench("rated-procs", args.seed, tally)
    try:
        setup_s = bench.setup()
        # Metrics are reported at the reference speed, where a sleep
        # shrinks by the slowdown; stretch the delays to keep their size.
        slow = bench.setup_speed.slowdown
        base_e2e, base_layers = measure(bench, args.seconds, setup_s)
        with slow_rate_allocation(RATE_DELAY_S * slow):
            rate_e2e, rate_layers = measure(bench, args.seconds, setup_s)
        core_e2e, core_layers = measure(
            bench, args.seconds, setup_s, wrap=slow_dispatch(DISPATCH_DELAY_S * slow)
        )
    finally:
        bench.close()
        stop_resource_tracker()

    ok = tally.failed == 0
    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}")
    cases = (
        ("rate", "encode_mpix_s", rate_e2e, rate_layers),
        ("core", "decode_mpix_s", core_e2e, core_layers),
    )
    for layer, metric, e2e, layers in cases:
        before, after = base_e2e[metric][0], e2e[metric][0]
        drop = (before - after) / before
        named = top_growth(base_layers, layers)
        passed = drop > bounds[metric] and named.startswith(layer + ".")
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {layer} handicap: {metric} "
              f"{before:.4g} -> {after:.4g} ({-100 * drop:+.1f}%, bound "
              f"{100 * bounds[metric]:.0f}%); most grown layer metric: {named} "
              f"({base_layers[named][0]:.4g} -> {layers[named][0]:.4g} s/Mpx)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's metric names and units, as BENCHMARK.json lists them."""

from __future__ import annotations

from typing import Dict, Tuple

from layers import CODEC_LAYER_METRICS

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("encode_mpix_s", "Mpx/s"),
    ("decode_mpix_s", "Mpx/s"),
    ("psnr_db", "dB"),
    ("bpp", "bit/px"),
    ("serve_p50_ms", "ms"),
    ("serve_p80_ms", "ms"),
    ("slo_attain_frac", "fraction"),
    ("serve_capacity_rps", "1/s"),
    ("admit_frac", "fraction"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

SERVE_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.sup_retries", "count"),
    ("core.sup_degradations", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p95", "ms"),
    ("serve.wire_ms.p50", "ms"),
    ("serve.wire_ms.p95", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.sheds.queue_full", "count"),
    ("serve.sheds.deadline", "count"),
    ("serve.sheds.shutdown", "count"),
    ("serve.client_retries", "count"),
    ("serve.client_reconnects", "count"),
    ("serve.gen_late_ms.p95", "ms"),
    ("serve.loop_errors", "count"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    CODEC_LAYER_METRICS + SERVE_LAYER_METRICS + (("obs.trace_overhead_frac", "fraction"),)
)


def fill_per_layer(
    measured: Dict[str, Tuple[float, str]], overhead: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, in BENCHMARK.json order.

    A layer a workload does not reach reads 0 (the codec layers on
    ``serve-mixed``, whose server does not pass a tracer into the codec;
    the serve layer on the codec workloads).
    """
    out = {name: measured.get(name, (0.0, unit)) for name, unit in PER_LAYER}
    out["obs.trace_overhead_frac"] = (overhead, "fraction")
    return out

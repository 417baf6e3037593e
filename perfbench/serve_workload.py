"""``serve-mixed``: seeded open-loop traffic into an in-process server.

One :class:`~repro.serve.CodecServer` (``processes`` backend, 2
workers, 1 pool, default admission) listens on loopback and one
:class:`~repro.serve.CodecClient` connection carries every request.
Half the requests encode and half decode 32x32 to 64x64 images with
the ``repro serve bench`` parameters.

Arrivals are drawn from the workload seed, in two phases: a
``nominal`` rate below capacity and an ``overload`` rate above it.  The
load generator here, not ``repro.serve.loadgen.run_load``, sends them: each
request is timed from the moment it was *due*, so a stalled event loop
shows up as latency of the requests it delayed, and the generator's own
lateness is recorded beside it.  Speed probes (``harness.probe`` and
``harness.PairProbe``) run only in the idle gaps between requests.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import (
    PROBE_REF_S,
    Digest,
    PairProbe,
    Speed,
    Tally,
    clock,
    median,
    peak_rss_mb,
    percentile,
    psnr_db,
)

from repro import CodecParams, SyntheticSpec, decode_image, encode_image, synthetic_image
from repro.obs import MetricsRegistry
from repro.serve import (
    SHED_REASONS,
    CodecClient,
    CodecServer,
    Completed,
    Failed,
    Rejected,
    RetryPolicy,
    ServeConfig,
)

#: The parameters ``repro serve bench`` encodes with.
SERVE_PARAMS = CodecParams(levels=2, cb_size=16, base_step=1 / 64)
SERVE_SIDES = (32, 48, 64)
SERVE_KINDS = ("mix", "texture", "fbm")
SERVE_CONFIG = ServeConfig(backend="processes", workers=2, pools=1)

#: Arrival rates (requests/s).  Capacity on a 2-core machine ranges
#: from 5 requests/s (at twice the reference time) to 15 (when the
#: machine runs fast), so ``nominal`` stays under 40% load: nearly no
#: request queues, and latency is the unloaded service path.  At 4
#: requests/s a slow machine runs near 80% load, where the share of
#: requests that queue, and with it the tail percentile, swings with
#: the machine's speed (by 60% from run to run).
#: ``overload`` runs at over twice the fastest capacity, filling the
#: admission queue within 3 s.
NOMINAL_RPS = 2.0
OVERLOAD_RPS = 35.0
#: Share of the run's seconds spent in the nominal phase.  At 30 s this
#: gives 51 nominal requests.
NOMINAL_SHARE = 0.85
#: The tail latency percentile reported, and the nominal latencies it
#: needs to have ten samples beyond it.
TAIL_PCT = 80
MIN_NOMINAL = 50
#: Seconds the client waits for one attempt's reply.  The default
#: (10 s) is about what the tail of a full admission queue waits at
#: this capacity, so under overload some requests would exhaust their
#: retries on timeouts; a per-request deadline instead makes the
#: supervisor rebuild the pool mid-request.  With a longer wait,
#: overload measures admission: every request is served or shed.
ATTEMPT_TIMEOUT_S = 60.0
#: Latency limit behind ``slo_attain_frac``, timed from the due time,
#: at the reference speed.
LATENCY_LIMIT_MS = 500.0
#: Served decodes must reproduce the direct call, which is lossless
#: at these parameters; the floor guards the oracle itself.
SERVE_PSNR_FLOOR = 50.0
#: Set-up is cheap here (well under a second), so it is repeated more
#: often than on the codec workloads before taking the median.
SERVE_SETUP_REPEATS = 7
#: A speed probe runs only while no request is in flight and the next
#: one is due at least this long from now, so it never delays a request.
PROBE_GAP_S = 8 * PROBE_REF_S
#: Probes taken right after set-up, before the first request.
PROBES_BEFORE_RUN = 10


@dataclass
class Input:
    index: int
    image: np.ndarray
    encoded: bytes
    decoded: np.ndarray


@dataclass
class Sent:
    """One generated request and its fate."""

    index: int
    phase: str
    op: str
    input: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    result: Any = None
    ok: bool = False


@dataclass
class Session:
    requests: List[Sent] = field(default_factory=list)
    windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    client_stats: Dict[str, Any] = field(default_factory=dict)
    sup_retries: int = 0
    sup_degradations: int = 0
    sheds: Dict[str, float] = field(default_factory=dict)
    speed: Speed = field(default_factory=Speed)


class ServeBench:
    """Inputs, oracle, server stack and open-loop load generator of serve-mixed."""

    def __init__(self, seed: int, tally: Tally) -> None:
        self.seed = seed
        self.tally = tally
        self.loop_errors = 0
        rng = np.random.default_rng(seed)
        shapes = [(s, k) for s in SERVE_SIDES for k in SERVE_KINDS]
        content = rng.integers(0, 2**31 - 1, size=len(shapes) + 1)
        self.inputs: List[Input] = []
        for i, (side, kind) in enumerate(shapes):
            img = synthetic_image(SyntheticSpec(side, side, kind, seed=int(content[i])))
            data = encode_image(img, SERVE_PARAMS).data
            self.inputs.append(Input(i, img, data, decode_image(data, backend="serial")))
        self.warm_image = synthetic_image(
            SyntheticSpec(SERVE_SIDES[0], SERVE_SIDES[0], "mix", seed=int(content[-1]))
        )
        self.rng = np.random.default_rng([seed, 1])
        self.digest = Digest()
        #: Started by :func:`serve_run`; every speed probe uses it.
        self.pair: Optional[PairProbe] = None

    # -- server stack --------------------------------------------------------

    def _count_loop_error(self, loop, context) -> None:
        """Loop exception handler: count, then log as asyncio would."""
        self.loop_errors += 1
        loop.default_exception_handler(context)

    async def start(self, tracer=None, metrics=None):
        """Server + TCP front door + connected client + one warm call."""
        server = CodecServer(SERVE_CONFIG, tracer=tracer, metrics=metrics)
        await server.start()
        host, port = await server.serve_tcp("127.0.0.1", 0)
        client = CodecClient(
            host, port,
            retry=RetryPolicy(attempt_timeout=ATTEMPT_TIMEOUT_S, jitter_seed=self.seed),
        )
        await client.connect()
        warm = await client.encode(self.warm_image, SERVE_PARAMS)
        if not isinstance(warm, Completed):
            raise RuntimeError(f"warm call failed: {warm!r}")
        return server, client

    @staticmethod
    async def stop(server, client) -> None:
        await client.close()
        await server.stop()

    async def setup(self) -> Tuple[float, Any, Any]:
        """Median set-up seconds at the reference speed; the last stack stays up.

        Speed probes run before each repeat, as on the codec workloads.
        """
        asyncio.get_running_loop().set_exception_handler(self._count_loop_error)
        speed = Speed(self.pair)
        times = []
        stack = None
        for _ in range(SERVE_SETUP_REPEATS):
            if stack is not None:
                await self.stop(*stack)
            speed.sample(4)
            t0 = clock()
            stack = await self.start()
            times.append(clock() - t0)
        return median(times) / speed.slowdown, stack[0], stack[1]

    # -- open-loop load generator --------------------------------------------

    def schedule(self, seconds: float) -> Tuple[List[Sent], Dict[str, Tuple[float, float]]]:
        """Seeded arrivals, offsets from the start of the run.

        A phase of length ``T`` at rate ``r`` holds ``r * T`` arrivals,
        one at a random point inside each ``1/r`` slot, so no seed sends
        more or fewer requests or bursts harder than another.  Requests
        walk a seeded shuffle of every (operation, input) pair, so each
        phase encodes and decodes every input equally often.
        """
        nominal_end = seconds * NOMINAL_SHARE
        windows = {"nominal": (0.0, nominal_end), "overload": (nominal_end, seconds)}
        pairs = [(op, i) for op in ("encode", "decode") for i in range(len(self.inputs))]
        out: List[Sent] = []
        for phase, rate in (("nominal", NOMINAL_RPS), ("overload", OVERLOAD_RPS)):
            lo, hi = windows[phase]
            n = int(round(rate * (hi - lo)))
            slots = lo + (np.arange(n) + self.rng.uniform(0.0, 1.0, size=n)) / rate
            mix: List[Tuple[str, int]] = []
            while len(mix) < n:
                mix.extend(pairs[k] for k in self.rng.permutation(len(pairs)))
            for due, (op, pick) in zip(slots, mix):
                out.append(Sent(len(out), phase, op, pick, float(due)))
        return out, windows

    async def run(self, server, client, seconds: float, tracer=None) -> Session:
        """Send the schedule open loop, one phase after the other.

        Each phase's replies are all in before the next phase starts.
        Speed probes run before the first request and in every idle gap
        of at least :data:`PROBE_GAP_S` before the next one is due.
        """
        requests, windows = self.schedule(seconds)
        now = tracer.now if tracer is not None else clock
        speed = Speed(self.pair)
        speed.sample(PROBES_BEFORE_RUN)
        in_flight = 0
        idle = asyncio.Event()
        idle.set()

        async def one(req: Sent) -> None:
            nonlocal in_flight
            inp = self.inputs[req.input]
            req.sent = now()
            try:
                if req.op == "encode":
                    req.result = await client.encode(inp.image, SERVE_PARAMS)
                else:
                    req.result = await client.decode(inp.encoded)
            except Exception as exc:  # a transport error is a failed request
                req.result = Failed(exc)
            req.done = now()
            in_flight -= 1
            if not in_flight:
                idle.set()

        started: Dict[str, Tuple[float, float]] = {}
        for phase, (lo, hi) in windows.items():
            start = now()
            started[phase] = (start, start + hi - lo)
            tasks: List[asyncio.Future] = []
            for req in (r for r in requests if r.phase == phase):
                req.due += start - lo
                slack = req.due - now() - PROBE_GAP_S
                if slack > 0:
                    try:
                        await asyncio.wait_for(idle.wait(), slack)
                        speed.sample()
                    except asyncio.TimeoutError:
                        pass
                delay = req.due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
                in_flight += 1
                idle.clear()
                tasks.append(asyncio.ensure_future(one(req)))
            await asyncio.gather(*tasks)

        session = Session(
            requests=requests,
            windows=started,
            client_stats=client.stats_dict(),
            speed=speed,
        )
        for _, rep in server.pool_reports():
            session.sup_retries += rep.retries
            session.sup_degradations += rep.degradations
        if server.metrics is not None:
            for reason in SHED_REASONS:
                slug = reason.replace("-", "_")
                counter = server.metrics.get(f"repro_serve_shed_{slug}_total")
                session.sheds[slug] = counter.value if counter is not None else 0.0
        for req in requests:
            self._check(req)
            if tracer is not None:
                self._span(tracer, req)
        return session

    def _check(self, req: Sent) -> None:
        res = req.result
        what = f"serve-mixed {req.phase} {req.op} #{req.index}"
        if isinstance(res, Rejected):
            self.tally.check(True, what)  # a shed is an answer, not an error
            return
        if isinstance(res, Completed):
            inp = self.inputs[req.input]
            if req.op == "encode":
                req.ok = res.value == inp.encoded
            else:
                req.ok = bool(np.array_equal(res.value, inp.decoded))
            self.tally.check(req.ok, f"{what}: reply differs from the direct call")
            return
        err = getattr(res, "error", res)
        self.tally.check(False, f"{what}: {type(err).__name__}: {err}")

    @staticmethod
    def _span(tracer, req: Sent) -> None:
        attrs = {"req": f"r{req.index}", "op": req.op, "phase": req.phase,
                 "late_ms": 1e3 * (req.sent - req.due)}
        res = req.result
        if isinstance(res, Completed):
            attrs.update(status="ok", queue_ms=1e3 * res.queue_wait,
                         service_ms=1e3 * res.service_seconds,
                         batch=res.batch_size)
        else:
            attrs["status"] = type(res).__name__
        tracer.add_span("serve.request", req.due, req.done, category="request", **attrs)

    # -- summaries -----------------------------------------------------------

    def quality(self) -> Tuple[float, float]:
        """(mean PSNR, mean bpp) of the direct-call outputs; feeds the digest."""
        psnrs, bpps = [], []
        for inp in self.inputs:
            self.digest.add(inp.encoded)
            self.digest.add(inp.decoded)
            p = psnr_db(inp.image, inp.decoded)
            self.tally.check(p >= SERVE_PSNR_FLOOR, f"input {inp.index}: PSNR {p:.2f} dB")
            psnrs.append(p)
            bpps.append(8.0 * len(inp.encoded) / inp.image.size)
        return float(np.mean(psnrs)), float(np.mean(bpps))

    def nominal_latencies_ms(self, session: Session) -> List[float]:
        """Correct ``nominal`` latencies, timed from the due time."""
        return [
            1e3 * (r.done - r.due) for r in session.requests
            if r.phase == "nominal" and r.ok
        ]

    @staticmethod
    def service_ms(session: Session) -> List[float]:
        """Server-side service times of every completed request."""
        return [1e3 * r.result.service_seconds for r in session.requests
                if isinstance(r.result, Completed)]

    def end_to_end(self, session: Session, setup_s: float, rss_mb: float) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics, time-based ones at the reference speed.

        The run's slowdown comes from probes taken before the first
        request and in the idle gaps of ``nominal`` (see :meth:`run`).
        Throughput is built from the median service time of each
        (operation, image side) class, which occur equally often.
        """
        reqs = session.requests
        slow = session.speed.slowdown
        nominal = [r for r in reqs if r.phase == "nominal"]
        lat = [ms / slow for ms in self.nominal_latencies_ms(session)]
        if len(lat) < MIN_NOMINAL:
            self.tally.check(
                False, f"only {len(lat)} nominal latencies; the p{TAIL_PCT} needs {MIN_NOMINAL}"
            )
            lat = lat or [float("nan")]
        # Overload fills the admission queue, so the server stays busy
        # from the start of the phase until the backlog has drained;
        # capacity is measured over that whole busy stretch.
        lo = session.windows["overload"][0]
        hi = max(r.done for r in reqs)
        in_window = [r for r in reqs if r.ok and r.done >= lo]
        service: Dict[Tuple[str, int], List[float]] = {}
        for r in reqs:
            if r.ok:
                px = self.inputs[r.input].image.size
                service.setdefault((r.op, px), []).append(r.result.service_seconds)

        def mpix_s(op: str) -> float:
            classes = [(px, median(t)) for (o, px), t in service.items() if o == op]
            return slow * sum(px for px, _ in classes) / 1e6 / sum(t for _, t in classes)

        shed = sum(1 for r in reqs if isinstance(r.result, Rejected))
        psnr, bpp = self.quality()
        return {
            "encode_mpix_s": (mpix_s("encode"), "Mpx/s"),
            "decode_mpix_s": (mpix_s("decode"), "Mpx/s"),
            "psnr_db": (psnr, "dB"),
            "bpp": (bpp, "bit/px"),
            "serve_p50_ms": (percentile(lat, 50), "ms"),
            "serve_p80_ms": (percentile(lat, TAIL_PCT), "ms"),
            "slo_attain_frac": (
                sum(1 for r in nominal
                    if r.ok and 1e3 * (r.done - r.due) / slow <= LATENCY_LIMIT_MS)
                / len(nominal),
                "fraction",
            ),
            "serve_capacity_rps": (slow * len(in_window) / (hi - lo), "1/s"),
            "admit_frac": (1.0 - shed / len(reqs), "fraction"),
            "ok_frac": (self.tally.ok_frac, "fraction"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }

    def layer_metrics(self, session: Session) -> Dict[str, Tuple[float, str]]:
        """Per-layer serve metrics; times in wall-clock ms."""
        reqs = session.requests
        nominal = [r for r in reqs if r.phase == "nominal" and isinstance(r.result, Completed)]
        queue = [1e3 * r.result.queue_wait for r in nominal]
        service = [1e3 * r.result.service_seconds for r in nominal]
        wire = [
            1e3 * (r.done - r.sent - r.result.queue_wait - r.result.service_seconds)
            for r in nominal
        ]
        done = [r for r in reqs if isinstance(r.result, Completed)]
        late = [1e3 * (r.sent - r.due) for r in reqs]

        def pct(values: List[float], q: float) -> float:
            return percentile(values, q) if values else 0.0

        out = {
            "core.sup_retries": (float(session.sup_retries), "count"),
            "core.sup_degradations": (float(session.sup_degradations), "count"),
            "serve.queue_wait_ms.p50": (pct(queue, 50), "ms"),
            "serve.queue_wait_ms.p95": (pct(queue, 95), "ms"),
            "serve.service_ms.p50": (pct(service, 50), "ms"),
            "serve.service_ms.p95": (pct(service, 95), "ms"),
            "serve.wire_ms.p50": (pct(wire, 50), "ms"),
            "serve.wire_ms.p95": (pct(wire, 95), "ms"),
            "serve.batch_size_mean": (
                float(np.mean([r.result.batch_size for r in done])) if done else 0.0, "count"
            ),
        }
        for reason in SHED_REASONS:
            slug = reason.replace("-", "_")
            out[f"serve.sheds.{slug}"] = (session.sheds.get(slug, 0.0), "count")
        out["serve.client_retries"] = (float(session.client_stats.get("retries", 0)), "count")
        out["serve.client_reconnects"] = (float(session.client_stats.get("reconnects", 0)), "count")
        out["serve.gen_late_ms.p95"] = (pct(late, 95), "ms")
        out["serve.loop_errors"] = (float(self.loop_errors), "count")
        return out


async def serve_run(bench: ServeBench, seconds: float, trace: bool):
    """The whole serve-mixed run inside one event loop.

    Untraced: set up, one timed session.  Traced: an untraced session
    of half the length (the overhead baseline), then a fresh stack with a
    tracer and a metrics registry for a full-length session, long enough
    for the overload phase to fill the admission queue.
    """
    bench.pair = PairProbe()
    try:
        return await _serve_sessions(bench, seconds, trace)
    finally:
        bench.pair.close()


async def _serve_sessions(bench: ServeBench, seconds: float, trace: bool):
    setup_s, server, client = await bench.setup()
    try:
        plain = await bench.run(server, client, seconds / 2 if trace else seconds)
        rss = peak_rss_mb(exclude=bench.pair.pids)
    finally:
        await bench.stop(server, client)
    if not trace:
        return setup_s, plain, None, None, rss
    from repro.obs import Tracer

    tracer = Tracer()
    server, client = await bench.start(tracer=tracer, metrics=MetricsRegistry())
    try:
        traced = await bench.run(server, client, seconds, tracer=tracer)
    finally:
        await bench.stop(server, client)
    return setup_s, plain, traced, tracer, rss

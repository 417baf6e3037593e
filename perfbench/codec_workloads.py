"""The two codec workloads: one closed-loop caller of the public codec.

``archive-serial``
    Encode and decode 256x256 images of each synthetic kind with the
    library-default parameters (5-level 9/7, 64x64 blocks, every pass
    kept) and no backend.  Tier-1 coding is nearly all of the time and
    nothing crosses a process boundary.

``rated-procs``
    The same caller on one warm ``processes`` pool of 2 workers, over
    512x512, 128x128 and 64x64 images encoded to three rate layers and
    decoded twice (all layers, then layer 0 only).  This is the workload
    that exercises process transport, block dealing, R/D allocation and
    the extra tier-2 rounds it forces.

Every run generates its images from the workload seed, then repeats a
fixed cycle of calls (one per image and operation, in a seeded order)
until the time is up, finishing at least one cycle.  A *request* of the
closed-loop caller is one image's round trip: its encode and decodes.
Speed probes (``harness.probe``) run between calls, never inside one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import (
    Digest,
    OpTimes,
    PairProbe,
    Speed,
    Tally,
    clock,
    peak_rss_mb,
    percentile,
    psnr_db,
    timed_median,
)

from repro import CodecParams, SyntheticSpec, decode_image, encode_image, synthetic_image
from repro.core.backend import get_backend
from repro.tier2.codestream import read_codestream

ARCHIVE_SIDE = 256
ARCHIVE_KINDS = ("mix", "texture", "fbm")
#: The default parameters keep every pass: decodes are lossless on these
#: images, so the floor sits just under the 58.92 dB cap.
ARCHIVE_PSNR_FLOOR = 50.0

RATED_PARAMS = CodecParams(target_bpp=(0.25, 0.5, 1.0))
#: (side, kind) of every image in one rated-procs cycle.
RATED_IMAGES = (
    (512, "mix"),
    (128, "texture"),
    (128, "fbm"),
    (64, "mix"),
    (64, "texture"),
    (64, "fbm"),
)
RATED_WORKERS = 2
ORACLE_PROCESSES = 2
#: PSNR floors (dB) for the all-layer and layer-0 decodes: ~2 dB under
#: the lowest seen over 30 seeds (64x64 texture/fbm at 1.0 and 0.25 bpp).
RATED_PSNR_FLOOR = 20.0
RATED_LAYER0_PSNR_FLOOR = 14.0

#: Per-request latency limit (seconds, at the reference speed) behind
#: ``slo_attain_frac``; a request is one image's encode and decodes.
REQUEST_LIMIT_S = {"archive-serial": 8.0, "rated-procs": 10.0}

WARM_SIDE = 64
#: Speed probes (``harness.probe``, ~15 ms each) taken before every call.
PROBES_PER_CALL = 3


def serial_oracle(image: np.ndarray, params: CodecParams):
    """(codestream, full decode, layer-0 decode) on the serial path."""
    data = encode_image(image, params).data
    return (
        data,
        decode_image(data, backend="serial"),
        decode_image(data, max_layer=0, backend="serial"),
    )


@dataclass
class Job:
    """One image and the checks its outputs must pass."""

    index: int
    label: str
    image: np.ndarray
    oracle: Optional[bytes] = None
    oracle_full: Optional[np.ndarray] = None
    oracle_layer0: Optional[np.ndarray] = None
    first: Dict[str, object] = field(default_factory=dict)

    @property
    def px(self) -> int:
        return int(self.image.size)


@dataclass
class Session:
    """What one timed loop saw."""

    times: OpTimes = field(default_factory=OpTimes)
    speed: Speed = field(default_factory=Speed)
    #: (seconds, outputs correct) of every request -- one image's encode
    #: and its decodes -- in order.
    requests: List[Tuple[float, bool]] = field(default_factory=list)
    exact: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)


class CodecBench:
    """Inputs, oracle, warm pool and timed loop of one codec workload."""

    def __init__(self, workload: str, seed: int, tally: Tally) -> None:
        if workload not in REQUEST_LIMIT_S:
            raise ValueError(f"not a codec workload: {workload!r}")
        self.workload = workload
        self.rated = workload == "rated-procs"
        self.tally = tally
        self.pool = None
        # The rated-procs calls keep three processes busy, so its speed
        # probes also time the pair (see harness.PairProbe).
        self.pair = PairProbe() if self.rated else None
        self.setup_speed = Speed(self.pair)
        rng = np.random.default_rng(seed)
        shapes = (
            RATED_IMAGES if self.rated
            else tuple((ARCHIVE_SIDE, k) for k in ARCHIVE_KINDS)
        )
        order = rng.permutation(len(shapes))
        content = rng.integers(0, 2**31 - 1, size=len(shapes) + 1)
        self.jobs = [
            Job(
                index=i,
                label=f"{side}{kind}",
                image=synthetic_image(
                    SyntheticSpec(side, side, kind, seed=int(content[j]))
                ),
            )
            for i, j in enumerate(order)
            for side, kind in [shapes[j]]
        ]
        self.warm_image = synthetic_image(
            SyntheticSpec(WARM_SIDE, WARM_SIDE, "mix", seed=int(content[-1]))
        )
        self.params = RATED_PARAMS if self.rated else CodecParams()
        self.ops = ("encode", "decode", "decode0") if self.rated else ("encode", "decode")
        self.cycle = [(op, job.label) for job in self.jobs for op in self.ops]
        self.digest = Digest()
        if self.rated:
            self._build_oracle()

    def _build_oracle(self) -> None:
        """Serial reference outputs; built before any timing starts.

        The serial path runs in two helper processes, largest image
        first, to halve the time a run spends before it measures.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        order = sorted(self.jobs, key=lambda job: -job.px)
        with ProcessPoolExecutor(
            ORACLE_PROCESSES, mp_context=multiprocessing.get_context("spawn")
        ) as ex:
            outs = ex.map(serial_oracle, [job.image for job in order],
                          [self.params] * len(order))
            for job, (data, full, layer0) in zip(order, outs):
                job.oracle, job.oracle_full, job.oracle_layer0 = data, full, layer0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Median seconds to start the pool and make the first warm call.

        Every repeat builds a fresh pool; the last one stays for the
        timed loop.
        """

        def once() -> None:
            if self.pool is not None:
                self.pool.close()
                self.pool = None
            if self.rated:
                self.pool = get_backend("processes", RATED_WORKERS)
            data = encode_image(self.warm_image, self.params, backend=self.pool).data
            decode_image(data, backend=self.pool)

        return timed_median(once, self.setup_speed)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.pair is not None:
            self.pair.close()
            self.pair = None

    # -- timed loop ----------------------------------------------------------

    def run(
        self,
        seconds: float,
        tracer=None,
        wrap: Optional[Callable] = None,
    ) -> Session:
        """Repeat the cycle until ``seconds`` pass (at least one cycle).

        ``wrap`` (tests only) replaces the pool backend the calls use.
        """
        backend = self.pool if wrap is None else wrap(self.pool)
        session = Session(speed=Speed(self.pair))
        t_end = clock() + seconds
        n = 0
        while n < len(self.jobs) or clock() < t_end:
            job = self.jobs[n % len(self.jobs)]
            self._step(job, n, backend, tracer, session)
            n += 1
        return session

    def _call(self, tracer, op: str, job: Job, n: int, fn):
        if tracer is None:
            t0 = clock()
            out = fn(None)
            return out, clock() - t0
        with tracer.span(
            op, category="op", op="decode" if op.startswith("decode") else op,
            req=f"{n}.{op}", px=job.px, input=job.index,
        ) as sp:
            t0 = clock()
            out = fn(tracer)
            seconds = clock() - t0
            if op == "encode":
                sp.attrs["decisions"] = int(
                    out.report.stages["tier-1 coding"].work.get("decisions", 0)
                )
        return out, seconds

    def _step(self, job: Job, n: int, backend, tracer, session: Session) -> None:
        session.speed.sample(PROBES_PER_CALL)
        res, t = self._call(
            tracer, "encode", job, n,
            lambda tr: encode_image(job.image, self.params, tracer=tr, backend=backend),
        )
        ok = self._check_encode(job, res)
        session.times.add("encode", job.label, t)
        total = t
        if job.index not in session.exact:
            rep = res.report.stages
            session.exact[job.index] = (
                job.px,
                int(rep["tier-1 coding"].work.get("decisions", 0)),
                int(rep["tier-2 coding"].work.get("bytes_written", 0)),
            )
        for op in self.ops[1:]:
            layer = 0 if op == "decode0" else None
            session.speed.sample(PROBES_PER_CALL)
            rec, t = self._call(
                tracer, op, job, n,
                lambda tr: decode_image(res.data, max_layer=layer, tracer=tr, backend=backend),
            )
            ok = self._check_decode(job, op, rec) and ok
            session.times.add(op, job.label, t)
            total += t
        session.requests.append((total, ok))

    # -- checks --------------------------------------------------------------

    def _check_encode(self, job: Job, res) -> bool:
        data = res.data
        what = f"{self.workload} encode {job.label}"
        if self.rated:
            payload = sum(len(t.packets) for t in read_codestream(data).tiles)
            budget = self.params.target_bpp[-1] * job.px / 8.0
            return self.tally.check(
                data == job.oracle and payload <= budget,
                f"{what}: bytes differ from the serial oracle or "
                f"{payload} packet bytes exceed the {budget:.0f}-byte budget",
            )
        first = job.first.setdefault("encode", data)
        return self.tally.check(data == first, f"{what}: bytes differ from the first encode")

    def _check_decode(self, job: Job, op: str, rec: np.ndarray) -> bool:
        what = f"{self.workload} {op} {job.label}"
        if self.rated:
            ref = job.oracle_full if op == "decode" else job.oracle_layer0
            return self.tally.check(
                rec.shape == ref.shape and bool(np.array_equal(rec, ref)),
                f"{what}: image differs from the serial oracle",
            )
        first = job.first.setdefault(op, rec)
        return self.tally.check(
            bool(np.array_equal(rec, first)), f"{what}: image differs from the first decode"
        )

    def quality(self) -> Tuple[float, float]:
        """(mean PSNR of full decodes, mean bpp) over the distinct images.

        Also checks every image against its PSNR floors and feeds the
        output digest, so it runs once per run after the timed loop.
        """
        psnrs, bpps = [], []
        for job in self.jobs:
            data = job.oracle if self.rated else job.first["encode"]
            full = job.oracle_full if self.rated else job.first["decode"]
            self.digest.add(data)
            self.digest.add(full)
            p = psnr_db(job.image, full)
            floor = RATED_PSNR_FLOOR if self.rated else ARCHIVE_PSNR_FLOOR
            self.tally.check(p >= floor, f"{job.label}: PSNR {p:.2f} dB < {floor}")
            if self.rated:
                self.digest.add(job.oracle_layer0)
                p0 = psnr_db(job.image, job.oracle_layer0)
                self.tally.check(
                    p0 >= RATED_LAYER0_PSNR_FLOOR,
                    f"{job.label}: layer-0 PSNR {p0:.2f} dB < {RATED_LAYER0_PSNR_FLOOR}",
                )
            psnrs.append(p)
            bpps.append(8.0 * len(data) / job.px)
        return float(np.mean(psnrs)), float(np.mean(bpps))

    # -- summaries -----------------------------------------------------------

    def end_to_end(self, session: Session, setup_s: float) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics, time-based ones at the reference speed."""
        times = session.times
        slow = session.speed.slowdown
        limit = REQUEST_LIMIT_S[self.workload]
        px = sum(job.px for job in self.jobs)
        decodes = len(self.ops) - 1
        enc_s = times.cycle_seconds(self.cycle, "encode")
        dec_s = times.cycle_seconds(self.cycle) - enc_s
        # One request is one image's round trip: its encode and decodes.
        request_ms = [
            1e3 / slow * sum(times.median(op, job.label) for op in self.ops)
            for job in self.jobs
        ]
        psnr, bpp = self.quality()
        return {
            "encode_mpix_s": (slow * px / 1e6 / enc_s, "Mpx/s"),
            "decode_mpix_s": (slow * decodes * px / 1e6 / dec_s, "Mpx/s"),
            "psnr_db": (psnr, "dB"),
            "bpp": (bpp, "bit/px"),
            "serve_p50_ms": (percentile(request_ms, 50), "ms"),
            "serve_p80_ms": (percentile(request_ms, 80), "ms"),
            "slo_attain_frac": (
                sum(1 for t, ok in session.requests if ok and t / slow <= limit)
                / len(session.requests),
                "fraction",
            ),
            "serve_capacity_rps": (
                slow * len(self.jobs) / times.cycle_seconds(self.cycle), "1/s"
            ),
            "admit_frac": (1.0, "fraction"),
            "ok_frac": (self.tally.ok_frac, "fraction"),
            "setup_s": (setup_s / self.setup_speed.slowdown, "s"),
            "peak_rss_mb": (peak_rss_mb(exclude=self.pair.pids if self.pair else ()), "MiB"),
        }

    def cycle_wall(self, session: Session) -> float:
        """Seconds one cycle takes at the reference speed."""
        return session.times.cycle_seconds(self.cycle) / session.speed.slowdown


"""Shared pieces of the benchmark: clocks, statistics, checks, output.

Nothing here touches the codec; the workload modules drive the program
through its public calls and use these helpers to time, check and
report what they saw.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter

#: MSE floor for PSNR: the rounding noise of 8-bit samples (1/12 LSB^2).
#: A lossless decode has MSE 0 and an infinite PSNR, which no metric can
#: carry, so it reads as 20*log10(255*sqrt(12)) = 58.92 dB instead.
MSE_FLOOR = 1.0 / 12.0

#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def psnr_db(reference: np.ndarray, decoded: np.ndarray) -> float:
    """PSNR of an 8-bit decode with the MSE floored at :data:`MSE_FLOOR`."""
    diff = reference.astype(np.float64) - decoded.astype(np.float64)
    mse = max(float(np.mean(diff * diff)), MSE_FLOOR)
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def timed_median(fn: Callable[[], None], speed, repeats: int = SETUP_REPEATS) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``.

    ``speed`` (a :class:`Speed`) is probed before every call.
    """
    times = []
    for _ in range(repeats):
        speed.sample(4)
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return median(times)


def _vm_hwm_kb(pid: str) -> int:
    """Peak resident set (``VmHWM``) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(exclude: Sequence[int] = ()) -> float:
    """Peak RSS of this process plus every live worker it started, MiB.

    Pool workers are ``multiprocessing`` children, so
    :func:`multiprocessing.active_children` finds them; call this before
    the pools close.  Forked workers share pages with the parent, so the
    sum counts shared pages once per process.
    """
    own = _vm_hwm_kb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(
        _vm_hwm_kb(str(p.pid)) for p in multiprocessing.active_children()
        if p.pid not in exclude
    )
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started.

    The processes backend exports sweep operands through
    ``multiprocessing.shared_memory``, which starts a tracker process.
    It would exit on its own once this process ends; stopping it here
    lets the benchmark wait for every process it caused to start.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


#: Median seconds of :func:`probe` at the reference machine speed.
PROBE_REF_S = 0.0125


def probe() -> float:
    """Seconds one fixed interpreter-bound loop takes right now.

    The machine this benchmark runs on is shared: its speed drifts by
    well over 1.5x within minutes, far more than any bound could absorb.
    This loop (integer arithmetic, branches and a small numpy array,
    like tier-1 coding, but no codec code) slows down with it; run
    between calls, its median time over a run estimates how fast the
    machine was during that run (README.md reports how well that held).
    It must stay independent of ``src/``, or a change to the codec would
    move the yardstick too.
    """
    t0 = clock()
    x, acc = 0x12345, 0
    arr = np.zeros(16, dtype=np.int64)
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        b = x >> 16
        if b & 1:
            acc += b
        else:
            acc ^= b
        if i % 2000 == 0:
            arr[i % 16] = acc & 0xFFFF
            acc += int(arr.sum())
    return clock() - t0


def _probe_helper(conn) -> None:
    """Body of a :class:`PairProbe` helper: one probe per request."""
    while conn.recv():
        conn.send(probe())


class PairProbe:
    """Runs :func:`probe` in two helper processes at the same time.

    One probe on its own only sees how fast one core runs.  Work spread
    over several processes (an event loop and two pool workers) also
    slows when the machine lends this one fewer cores; two probes at
    once, timed by the slower, see that.  The helpers are spawned once
    and idle between probes.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(2):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_probe_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._helpers.append((parent, proc))
        self()  # wait until both have started

    @property
    def pids(self) -> List[int]:
        return [proc.pid for _, proc in self._helpers]

    def __call__(self) -> float:
        for conn, _ in self._helpers:
            conn.send(True)
        return max(conn.recv() for conn, _ in self._helpers)

    def close(self) -> None:
        for conn, proc in self._helpers:
            conn.send(False)
            proc.join()
            conn.close()
        self._helpers = []


class Speed:
    """Probe times collected during a run; see :func:`probe`.

    With a :class:`PairProbe`, each sample also times the pair, and a
    sample's probe time is the mean of the single and the pair time.
    """

    def __init__(self, pair: Optional[PairProbe] = None) -> None:
        self.pair = pair
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t = probe()
            if self.pair is not None:
                t = (t + self.pair()) / 2.0
            self.samples.append(t)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran.

        Time-based metrics are reported at the reference speed:
        durations are divided by this factor and rates multiplied.
        """
        return median(self.samples) / PROBE_REF_S


class Tally:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


class Digest:
    """SHA-256 over a workload's outputs, in input order."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._h.update(repr((value.shape, value.dtype.str)).encode())
            value = np.ascontiguousarray(value).tobytes()
        self._h.update(value)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class OpTimes:
    """Wall seconds per operation class, for closed-loop workloads.

    A run ends at a time limit, not on a cycle boundary, so it finishes
    a different share of each class from run to run.  Summaries are
    therefore built from each class's median time, weighted by how
    often the class occurs in one cycle of the workload.
    """

    def __init__(self) -> None:
        self.samples: Dict[Tuple[str, str], List[float]] = {}

    def add(self, op: str, cls: str, seconds: float) -> None:
        self.samples.setdefault((op, cls), []).append(seconds)

    def median(self, op: str, cls: str) -> float:
        return median(self.samples[(op, cls)])

    def cycle_seconds(self, cycle: Sequence[Tuple[str, str]], op: str = "") -> float:
        return sum(
            self.median(o, c) for o, c in cycle if not op or o == op
        )


def emit(tally: Tally, metrics: Dict[str, Tuple[float, str]], notes: Dict) -> None:
    """Print the human summary to stderr and the result line to stdout."""
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}", file=sys.stderr)
    for key, value in notes.items():
        print(f"  {key}: {value}", file=sys.stderr)
    for problem in tally.problems:
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))


def out_dir(root: str) -> str:
    """Directory (inside the checkout) for artifacts such as traces."""
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path

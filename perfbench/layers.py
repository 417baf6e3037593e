"""Per-layer attribution of a traced codec run.

The benchmark opens one ``category="op"`` span around every public
``encode_image``/``decode_image`` call and passes the same tracer into
the call, which records the Fig. 3 stage spans (children of the op span)
and the pool phases with per-worker task records.  Pool phases are
recorded without a parent, so each is attached here to the op and stage
whose interval contains it, and every span of one op is tagged with the
op's request id.

Each op's wall time splits into disjoint parts that sum to it exactly:

* a stage's *self time* is its span minus the pool phases inside it;
* a pool phase splits into the busiest worker's busy time (compute on
  the blocking path) and the rest (``wall - max busy``: shipping work
  out, waiting for results, idling at the barrier);
* ``codec.other_s`` is the op's wall time not owned by a layer: the op
  span minus its stage spans, plus the stages no layer owns (image I/O,
  pipeline setup, inter-component transform, bitstream I/O).

Layer times are seconds per megapixel of the ops they belong to.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

#: Stage name -> layer metric prefix (op type decides the suffix).
_STAGE_LAYER = {
    "tier-1 coding": "ebcot.t1",
    "intra-component transform": "wavelet",
    "quantization": "quant",
    "R/D allocation": "rate",
    "tier-2 coding": "tier2",
}

#: Tolerance for the accounting identity (seconds per op).
_EPS = 1e-6


def _phase_kind(name: str) -> str:
    if name.startswith("tier-1 "):
        return "t1"
    if name.startswith(("DWT ", "IDWT ")):
        return "dwt"
    return "other"


class _Phase:
    def __init__(self, span) -> None:
        self.span = span
        self.busy: Dict[int, float] = {}
        self.tasks: List = []

    @property
    def wall(self) -> float:
        return self.span.seconds

    @property
    def max_busy(self) -> float:
        return max(self.busy.values(), default=0.0)

    @property
    def total_busy(self) -> float:
        return sum(self.busy.values())


class CodecAttribution:
    """Layer totals over every traced op, plus the accounting check."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.mpx = {"encode": 0.0, "decode": 0.0}
        self.rd_rounds: Dict[object, int] = {}
        self.decisions = 0
        self.t1_encode_seconds = 0.0
        self.t1_wall = 0.0
        self.t1_busy = 0.0
        self.t1_max_busy = 0.0
        self.t1_mean_busy = 0.0
        self.accounting_errors: List[str] = []
        self.wall = {"encode": 0.0, "decode": 0.0}

    def add(self, key: str, seconds: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds


def attribute(tracer, n_workers: int) -> CodecAttribution:
    """Split every traced op's wall time into layers (see module doc).

    ``n_workers`` is the pool size; a worker that got no share of a
    phase still counts towards the mean in ``core.imbalance``.
    """
    ops = sorted(
        (sp for sp in tracer.spans if sp.category == "op"), key=lambda s: s.t0
    )
    starts = [op.t0 for op in ops]
    children: Dict[int, List] = {id(op): [] for op in ops}
    for sp in tracer.spans:
        if sp.category == "stage" and sp.parent is not None:
            if id(sp.parent) in children:
                children[id(sp.parent)].append(sp)

    phases: Dict[int, List[_Phase]] = {}
    by_name: Dict[str, List[_Phase]] = {}
    for sp in tracer.spans:
        if sp.category != "phase":
            continue
        op = _containing(ops, starts, sp.t0, sp.t1)
        if op is None:
            continue
        ph = _Phase(sp)
        phases.setdefault(id(op), []).append(ph)
        by_name.setdefault(sp.name, []).append(ph)
    phase_starts: Dict[str, List[float]] = {}
    for name, plist in by_name.items():
        plist.sort(key=lambda p: p.span.t0)
        phase_starts[name] = [p.span.t0 for p in plist]
    for task in tracer.tasks:
        # Match on the task's end: a process worker's task is anchored to
        # end when its result arrived, so its start may precede the phase.
        plist = by_name.get(task.phase, [])
        i = bisect.bisect_right(phase_starts.get(task.phase, []), task.t1) - 1
        if i >= 0 and task.t1 <= plist[i].span.t1 + _EPS:
            busy = plist[i].busy
            busy[task.worker] = busy.get(task.worker, 0.0) + task.seconds
            plist[i].tasks.append(task)

    att = CodecAttribution()
    for op in ops:
        kind = op.attrs["op"]
        req = op.attrs["req"]
        att.mpx[kind] += op.attrs["px"] / 1e6
        att.wall[kind] += op.seconds
        owned = 0.0
        stage_total = 0.0
        op_phases = phases.get(id(op), [])
        for ph in op_phases:
            ph.span.attrs["req"] = req
            for task in ph.tasks:
                task.attrs["req"] = req
        rounds = 0
        for st in sorted(children[id(op)], key=lambda s: s.t0):
            st.attrs["req"] = req
            stage_total += st.seconds
            inner = [p for p in op_phases
                     if p.span.t0 >= st.t0 - _EPS and p.span.t1 <= st.t1 + _EPS]
            phase_wall = sum(p.wall for p in inner)
            self_time = st.seconds - phase_wall
            if self_time < -_EPS * (1 + len(inner)):
                att.accounting_errors.append(
                    f"{kind} {req}: stage {st.name!r} shorter than its phases"
                )
            if st.name == "R/D allocation":
                rounds += 1
            layer = _STAGE_LAYER.get(st.name)
            if layer is None:
                continue
            busy_path = sum(p.max_busy for p in inner)
            name = _layer_metric(layer, kind)
            att.add(name, self_time + busy_path)
            owned += self_time + busy_path
            for p in inner:
                pk = _phase_kind(p.span.name)
                if pk == "t1":
                    att.add("core.transport_s", p.wall - p.max_busy)
                    att.t1_wall += p.wall
                    att.t1_busy += p.total_busy
                    att.t1_max_busy += p.max_busy
                    att.t1_mean_busy += p.total_busy / max(1, n_workers)
                elif pk == "dwt":
                    att.add("core.dwt_sweep_overhead_s", p.wall - p.max_busy)
                else:
                    att.add("codec.other_s", p.wall - p.max_busy)
                owned += p.wall - p.max_busy
            if layer == "ebcot.t1" and kind == "encode":
                att.t1_encode_seconds += self_time + busy_path
        other = op.seconds - owned
        if op.seconds - stage_total < -_EPS * (1 + len(children[id(op)])):
            att.accounting_errors.append(
                f"{kind} {req}: stage spans exceed the op's wall time"
            )
        att.add("codec.other_s", other)
        if kind == "encode":
            att.rd_rounds.setdefault(op.attrs.get("input"), rounds)
            att.decisions += op.attrs.get("decisions", 0)
    return att


def _layer_metric(layer: str, kind: str) -> str:
    if layer == "ebcot.t1":
        return f"ebcot.t1_{kind}_s"
    if layer == "wavelet":
        return "wavelet.dwt_s" if kind == "encode" else "wavelet.idwt_s"
    if layer == "quant":
        return "quant.s"
    if layer == "rate":
        return "rate.alloc_s"
    return f"tier2.{kind}_s"


def _containing(ops: Sequence, starts: Sequence[float], t0: float, t1: float):
    """The op span whose interval holds ``[t0, t1]`` (ops never overlap)."""
    i = bisect.bisect_right(starts, t0 + _EPS) - 1
    if i < 0:
        return None
    op = ops[i]
    return op if t1 <= op.t1 + _EPS else None


#: Per-layer metrics the codec attribution yields, with their units.
CODEC_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("ebcot.t1_encode_s", "s/Mpx"),
    ("ebcot.t1_decode_s", "s/Mpx"),
    ("ebcot.mq_decisions", "count/Mpx"),
    ("ebcot.decisions_per_s", "1/s"),
    ("wavelet.dwt_s", "s/Mpx"),
    ("wavelet.idwt_s", "s/Mpx"),
    ("quant.s", "s/Mpx"),
    ("rate.alloc_s", "s/Mpx"),
    ("rate.rounds", "count"),
    ("tier2.encode_s", "s/Mpx"),
    ("tier2.decode_s", "s/Mpx"),
    ("tier2.bytes", "bytes"),
    ("codec.other_s", "s/Mpx"),
    ("codec.seq_frac", "fraction"),
    ("core.t1_pool_wall_s", "s/Mpx"),
    ("core.t1_worker_busy_s", "s/Mpx"),
    ("core.transport_s", "s/Mpx"),
    ("core.imbalance", "ratio"),
    ("core.dwt_sweep_overhead_s", "s/Mpx"),
)


def codec_layer_metrics(
    att: CodecAttribution,
    seq_frac: float,
    exact: Dict[object, Tuple[int, int, int]],
    slowdown: float,
) -> Dict[str, Tuple[float, str]]:
    """Normalise an attribution into the per-layer metric table.

    ``exact`` maps each distinct encoded input to ``(pixels, MQ
    decisions, tier-2 bytes)`` taken from its ``EncodeResult.report``;
    those counts repeat exactly for a given seed.  Times are divided by
    ``slowdown`` (see ``harness.Speed``) to the reference speed.
    """
    enc = slowdown * (att.mpx["encode"] or float("inf"))
    dec = slowdown * (att.mpx["decode"] or float("inf"))
    both = slowdown * ((att.mpx["encode"] + att.mpx["decode"]) or float("inf"))
    s = att.seconds.get
    px = sum(v[0] for v in exact.values())
    values = {
        "ebcot.t1_encode_s": s("ebcot.t1_encode_s", 0.0) / enc,
        "ebcot.t1_decode_s": s("ebcot.t1_decode_s", 0.0) / dec,
        "ebcot.mq_decisions": (
            sum(v[1] for v in exact.values()) / (px / 1e6) if px else 0.0
        ),
        "ebcot.decisions_per_s": (
            slowdown * att.decisions / att.t1_encode_seconds
            if att.t1_encode_seconds else 0.0
        ),
        "wavelet.dwt_s": s("wavelet.dwt_s", 0.0) / enc,
        "wavelet.idwt_s": s("wavelet.idwt_s", 0.0) / dec,
        "quant.s": s("quant.s", 0.0) / both,
        "rate.alloc_s": s("rate.alloc_s", 0.0) / enc,
        "rate.rounds": (
            sum(att.rd_rounds.values()) / len(att.rd_rounds) if att.rd_rounds else 0.0
        ),
        "tier2.encode_s": s("tier2.encode_s", 0.0) / enc,
        "tier2.decode_s": s("tier2.decode_s", 0.0) / dec,
        "tier2.bytes": (
            sum(v[2] for v in exact.values()) / len(exact) if exact else 0.0
        ),
        "codec.other_s": s("codec.other_s", 0.0) / both,
        "codec.seq_frac": seq_frac,
        "core.t1_pool_wall_s": att.t1_wall / both,
        "core.t1_worker_busy_s": att.t1_busy / both,
        "core.transport_s": s("core.transport_s", 0.0) / both,
        "core.imbalance": (
            att.t1_max_busy / att.t1_mean_busy if att.t1_mean_busy else 1.0
        ),
        "core.dwt_sweep_overhead_s": s("core.dwt_sweep_overhead_s", 0.0) / both,
    }
    return {name: (values[name], unit) for name, unit in CODEC_LAYER_METRICS}


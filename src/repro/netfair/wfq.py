"""Packetised fair queueing: WFQ (PGPS) and WF²Q.

**WFQ** (Demers–Keshav–Shenker; analysed as PGPS by Parekh & Gallager)
transmits, whenever the link frees, the queued packet with the smallest
GPS virtual finish time.  Its celebrated bound: every packet departs no
later than its GPS fluid finish plus one maximum packet time,

    D_WFQ(p)  <=  D_GPS(p) + L_max / r .

**WF²Q** (Bennett & Zhang, cited as [7] by the paper) additionally
restricts the choice to *eligible* packets — those whose GPS service has
already started (virtual start ``S <= V(now)``) — which tightens the
other side too: WF²Q never runs more than one packet ahead of GPS
("worst-case fair").  The difference matters for exactly the reason the
paper cares about Pfair's (−1, 1) lag window rather than a one-sided
bound: being *ahead* of the fluid schedule is also a fairness violation.

Both schedulers reuse the exact GPS stamps from
:func:`repro.netfair.gps.simulate_gps` — virtual stamps depend only on
the arrival process, not on the packetised service order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .gps import Flow, GPSResult, Packet, _number_packets, simulate_gps

__all__ = ["PacketizedResult", "simulate_wfq", "virtual_time_at"]


@dataclass
class PacketizedResult:
    """Departure times of a packetised (one-packet-at-a-time) schedule."""

    algorithm: str
    #: (flow, per-flow index) -> real departure (transmission end) time.
    departure: Dict[Tuple[str, int], Fraction] = field(default_factory=dict)
    #: Transmission order as (flow, index) tuples.
    order: List[Tuple[str, int]] = field(default_factory=list)
    gps: Optional[GPSResult] = None

    def delay(self, flow: str, index: int, arrival: int) -> Fraction:
        return self.departure[(flow, index)] - arrival


def virtual_time_at(gps: GPSResult, t: Fraction) -> Fraction:
    """Evaluate the piecewise-linear GPS virtual time at real time ``t``.

    Breakpoints may repeat a time coordinate at busy-period boundaries
    (V resets to 0); the latest entry at or before ``t`` wins, matching
    the right-continuous convention.
    """
    pts = gps.v_breakpoints
    times = [bp[0] for bp in pts]
    k = bisect_right(times, t) - 1
    if k < 0:
        return Fraction(0)
    t0, v0 = pts[k]
    if k + 1 < len(pts):
        t1, v1 = pts[k + 1]
        if t1 > t0 and t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return v0


def simulate_wfq(flows: Sequence[Flow], packets: Sequence[Packet], *,
                 worst_case_fair: bool = False) -> PacketizedResult:
    """Simulate WFQ (default) or WF²Q (``worst_case_fair=True``).

    The link has rate 1; transmission is non-preemptive.  Ties on the
    virtual finish break by (flow name, index) for determinism.
    """
    gps = simulate_gps(flows, packets)
    queue = _number_packets(packets)
    result = PacketizedResult(
        algorithm="WF2Q" if worst_case_fair else "WFQ", gps=gps)
    t = Fraction(0)
    i = 0
    n = len(queue)
    backlog: List[Packet] = []
    while i < n or backlog:
        if not backlog:
            t = max(t, Fraction(queue[i].arrival))
        while i < n and Fraction(queue[i].arrival) <= t:
            backlog.append(queue[i])
            i += 1
        candidates = backlog
        if worst_case_fair:
            v_now = virtual_time_at(gps, t)
            eligible = [p for p in backlog
                        if gps.stamps[(p.flow, p.index)][0] <= v_now]
            # A busy system always has at least one eligible packet (the
            # one GPS itself is serving); guard for boundary rationals.
            if eligible:
                candidates = eligible
        chosen = min(candidates,
                     key=lambda p: (gps.stamps[(p.flow, p.index)][1],
                                    p.flow, p.index))
        backlog.remove(chosen)
        t = t + chosen.length
        result.departure[(chosen.flow, chosen.index)] = t
        result.order.append((chosen.flow, chosen.index))
    return result

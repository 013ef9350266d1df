"""Assembly and verification of lower-bound certificates.

A certificate lists at least r distinct balanced lines, each with a
provenance explaining which mechanism produced it:

* with no delta-preserving curve available, every red level rotation must
  cross the boundary weight, and those crossings alone provide the lines;
* otherwise the chosen minimum-waist curve splits its color class into two
  flanks and a strip.  Each flank level contributes one balanced boundary
  crossing inside the central strip, each strip level two crossings (one
  for the top level of an odd strip).  A strip crossing caused by a flank
  point is recharged: it induces a crossing back toward the boundary in
  that flank's rotation, which forces one more balanced crossing there.

Before the certificate is returned, every certified line is recounted once
by ``geometry.is_balanced``, which shares nothing with the rotations and
curves that chose it; the cubic ``oracle.enumerate_naive`` is not needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .geometry import (
    BalancedLinesError,
    Color,
    DirectedLine,
    Direction,
    GuaranteeViolation,
    Instance,
    Side,
    ccw_arc_contains,
    halfplane_weight,
    is_balanced,
)
from .oracle import BalancedLine
from .rotation import (
    RotationSpec,
    Transition,
    run_rotation,
    transitions_at,
)
from .gamma import (
    Gamma,
    _split_fhg,
    central_transitions,
    find_gamma,
    in_central_region,
    transition_low,
)


class UnclassifiableTransition(BalancedLinesError):
    """A strip transition crossed a point outside the expected classes."""


class CertificateFailure(BalancedLinesError):
    """The assembled certificate failed its final verification."""


@dataclass(frozen=True)
class Provenance:
    kind: str  # "flank_f" | "flank_h" | "strip" | "recharge" | "direct"
    level: int
    via: Optional[str] = None
    via_level: Optional[int] = None

    def label(self) -> str:
        if self.kind == "recharge":
            return f"recharge(g_k={self.level},via={self.via},j={self.via_level})"
        return f"{self.kind}(k={self.level})"


@dataclass(frozen=True)
class CertifiedLine:
    line: BalancedLine
    provenance: Provenance
    snapshot: DirectedLine


@dataclass(frozen=True)
class RechargeRecord:
    source: Transition
    via: str
    level: int
    induced_direction: Direction
    new_line: BalancedLine
    new_snapshot: DirectedLine


@dataclass(frozen=True)
class Certificate:
    gamma: Optional[Gamma]
    color: Color
    f_ids: tuple[int, ...]
    h_ids: tuple[int, ...]
    g_ids: tuple[int, ...]
    lines: tuple[CertifiedLine, ...]
    total: int


def _flank_pool(inst: Instance, gamma: Gamma, family: tuple[int, ...], level: int):
    """Balanced central-strip boundary steps of one flank rotation, in sweep order.

    Both step directions qualify: each spans a balanced line when the
    crossed point has the opposite color, and recharges may consume either.
    Balance is read first, in O(1) per step; only balanced steps pay for
    ``in_central_region``, which evaluates the curve twice.
    """
    trace = run_rotation(RotationSpec(frozenset(family), level, gamma.waist.achieved_at), inst)
    low = transition_low(gamma.color, inst.delta)
    return [t for t in transitions_at(trace, low, inst)
            if t.is_balanced and in_central_region(inst, gamma, t)]


def _line_of(inst: Instance, t: Transition, delta: int) -> BalancedLine:
    a, b = inst.point(t.pivot_id), inst.point(t.crossed_id)
    red, blue = (a.id, b.id) if a.color is Color.RED else (b.id, a.id)
    return BalancedLine(red, blue, (delta, delta))


def flank_lines(inst: Instance, gamma: Gamma, f_ids: tuple[int, ...],
                h_ids: tuple[int, ...]) -> list[CertifiedLine]:
    """One balanced central-strip departure per flank level.

    The guaranteed departure lies in the first half turn past the achieving
    direction, which keeps the picks distinct across levels and flanks.
    """
    picks, _ = _flank_picks(inst, gamma, f_ids, h_ids)
    return picks


def _flank_picks(inst: Instance, gamma: Gamma, f_ids, h_ids):
    """``flank_lines`` with the pools it picked from, keyed by (flank, level).

    A departure qualifies when its direction lies on the closed half turn
    from the flank's reference line (``ccw_arc_contains``).
    """
    theta = gamma.waist.achieved_at
    pools: dict[tuple[str, int], list[Transition]] = {}
    picks: list[CertifiedLine] = []
    used: set[tuple[int, int]] = set()
    for name, family in (("f", f_ids), ("h", h_ids)):
        # the guaranteed departure lies within the half turn that starts at
        # the flank's own reference line: the achieving line for the first
        # flank, its antipodal partner for the second
        base = theta if name == "f" else theta.antipode
        for level in range(len(family)):
            pool = _flank_pool(inst, gamma, family, level)
            pools[(name, level)] = pool
            chosen = None
            for t in pool:
                if t.from_omega != inst.delta:
                    continue
                if not ccw_arc_contains(base, base.antipode, t.direction):
                    continue
                line = _line_of(inst, t, inst.delta)
                if line.key in used:
                    continue
                chosen = CertifiedLine(line, Provenance(f"flank_{name}", level), t.line)
                break
            if chosen is None:
                raise GuaranteeViolation(
                    f"no balanced central departure for flank {name} level {level}"
                )
            used.add(chosen.line.key)
            picks.append(chosen)
    return picks, pools


def strip_transitions(inst: Instance, gamma: Gamma,
                      g_ids: tuple[int, ...]) -> list[list[Transition]]:
    """Central-strip boundary transitions of every strip level.

    Level k of a strip of size s runs for k in 0..ceil(s/2)-1; each level
    must contribute at least two transitions whose lines sit inside or on
    the strip at their own direction.
    """
    theta = gamma.waist.achieved_at
    out = []
    for level in range((len(g_ids) + 1) // 2):
        trace = run_rotation(RotationSpec(frozenset(g_ids), level, theta), inst)
        central = central_transitions(inst, gamma, trace)
        if len(central) < 2:
            raise GuaranteeViolation(
                f"strip level {level} produced {len(central)} central transitions"
            )
        out.append(central)
    return out


def recharge(inst: Instance, gamma: Gamma, transition: Transition,
             f_ids: tuple[int, ...], h_ids: tuple[int, ...],
             used: frozenset = frozenset()) -> Union[BalancedLine, RechargeRecord]:
    """Resolve one strip transition into a balanced line.

    A transition through an opposite-colored point is already balanced.  A
    transition through a flank point induces a step back to the boundary in
    that flank's rotation at the level of the induced line, which forces a
    distinct new balanced departure there; the record carries that line.
    """
    return _recharge(inst, gamma, transition, f_ids, h_ids, {}, used)


def _recharge(inst: Instance, gamma: Gamma, transition: Transition, f_ids, h_ids,
              pools: dict, used) -> Union[BalancedLine, RechargeRecord]:
    """``recharge`` drawing flank pools from ``pools``, keyed (flank, level).

    A pool missing from ``pools`` is built and stored there.
    """
    crossed = inst.point(transition.crossed_id)
    if crossed.color is not gamma.color:
        if not transition.is_balanced:
            raise UnclassifiableTransition(
                f"opposite-color transition at {transition.direction} is unbalanced"
            )
        return _line_of(inst, transition, inst.delta)
    if crossed.id in f_ids:
        name, family = "f", f_ids
    elif crossed.id in h_ids:
        name, family = "h", h_ids
    else:
        raise UnclassifiableTransition(
            f"crossed point {crossed.id} is neither a flank nor an opposite point"
        )
    g = inst.point(transition.pivot_id)
    d_star = Direction.of(g.x - crossed.x, g.y - crossed.y)
    o_crossed = d_star.offset(crossed.x, crossed.y)
    level = 0
    for fid in family:
        p = inst.point(fid)
        if fid != crossed.id and d_star.offset(p.x, p.y) < o_crossed:
            level += 1
    sgn = 1 if gamma.color is Color.RED else -1
    induced = DirectedLine(crossed.x, crossed.y, d_star, (crossed.id, transition.pivot_id))
    w = halfplane_weight(induced, inst, Side.RIGHT)
    if w != inst.delta + sgn:
        raise GuaranteeViolation(
            f"induced flank step at {d_star} has weight {w}, expected {inst.delta + sgn}"
        )
    key = (name, level)
    if key not in pools:
        pools[key] = _flank_pool(inst, gamma, family, level)
    for t in pools[key]:
        line = _line_of(inst, t, inst.delta)
        if line.key in used:
            continue
        return RechargeRecord(transition, name, level, d_star, line, t.line)
    raise GuaranteeViolation(
        f"flank {name} level {level} has no unused balanced departure to recharge"
    )


def verify_lower_bound(inst: Instance) -> Certificate:
    """Build and fully verify a certificate of at least r balanced lines."""
    gamma = find_gamma(inst)
    if gamma is None:
        cert = _direct_certificate(inst)
    else:
        cert = _gamma_certificate(inst, gamma)
    _check_certificate(inst, cert)
    return cert


def _direct_certificate(inst: Instance) -> Certificate:
    """Accounting when no level rotation preserves delta.

    Every red level rotation then steps over the boundary in both
    directions; levels k and r-1-k see the same lines from opposite sides,
    so the first half of the levels already yields r distinct lines (one
    from the middle level when r is odd, two from every other level).
    """
    delta = inst.delta
    used: set[tuple[int, int]] = set()
    lines: list[CertifiedLine] = []
    r = inst.r
    for level in range((r + 1) // 2):
        trace = run_rotation(RotationSpec(Color.RED, level), inst)
        quota = 1 if (r % 2 == 1 and level == r // 2) else 2
        got = 0
        for t in transitions_at(trace, delta, inst):
            if not t.is_balanced:
                raise GuaranteeViolation(
                    f"unbalanced boundary step in red rotation level {level}"
                )
            line = _line_of(inst, t, delta)
            if line.key in used:
                continue
            used.add(line.key)
            lines.append(CertifiedLine(line, Provenance("direct", level), t.line))
            got += 1
            if got == quota:
                break
        if got < quota:
            raise GuaranteeViolation(
                f"red rotation level {level} yielded {got} of {quota} distinct lines"
            )
    return Certificate(None, Color.RED, (), (), (), tuple(lines), len(lines))


def _gamma_certificate(inst: Instance, gamma: Gamma) -> Certificate:
    f_ids, h_ids, g_ids = _split_fhg(inst, gamma)  # find_gamma returns preserving curves
    picks, pools = _flank_picks(inst, gamma, f_ids, h_ids)
    used = {c.line.key for c in picks}
    lines = list(picks)
    per_level = strip_transitions(inst, gamma, g_ids)
    s = len(g_ids)
    for level, central in enumerate(per_level):
        quota = 1 if (s % 2 == 1 and level == s // 2) else 2
        got = 0
        for t in central:
            try:
                resolved = _recharge(inst, gamma, t, f_ids, h_ids, pools, used)
            except GuaranteeViolation:
                continue
            if isinstance(resolved, RechargeRecord):
                line, snapshot = resolved.new_line, resolved.new_snapshot
                prov = Provenance("recharge", level, resolved.via, resolved.level)
            else:
                line, prov, snapshot = resolved, Provenance("strip", level), t.line
            if line.key in used:
                continue
            used.add(line.key)
            lines.append(CertifiedLine(line, prov, snapshot))
            got += 1
            if got == quota:
                break
        if got < quota:
            raise GuaranteeViolation(
                f"strip level {level} contributed {got} of {quota} lines"
            )
    return Certificate(
        gamma, gamma.color, f_ids, h_ids, g_ids, tuple(lines), len(lines)
    )


def _check_certificate(inst: Instance, cert: Certificate) -> None:
    keys = [c.line.key for c in cert.lines]
    if len(set(keys)) != len(keys):
        raise CertificateFailure("certified lines are not pairwise distinct")
    for red, blue in keys:
        colors = (inst.point(red).color, inst.point(blue).color)
        if colors != (Color.RED, Color.BLUE) or not is_balanced(red, blue, inst):
            raise CertificateFailure(f"line {(red, blue)} is not a balanced red/blue pair")
    if cert.total != len(cert.lines):
        raise CertificateFailure("total does not match the number of lines")
    if cert.total < inst.r:
        raise CertificateFailure(f"certificate total {cert.total} below r={inst.r}")
    expected = inst.r if cert.color is Color.RED else inst.b
    if cert.gamma is not None and cert.total != expected:
        raise CertificateFailure(
            f"curve certificate total {cert.total}, expected {expected}"
        )


def certificate_to_json(cert: Certificate) -> str:
    gamma_payload = None
    if cert.gamma is not None:
        g = cert.gamma
        pieces = []
        for piece in g.sr.pieces:
            if hasattr(piece, "pivot"):
                pieces.append({
                    "type": "arc",
                    "pivot": piece.pivot,
                    "from": {"dx": piece.d_from.dx, "dy": piece.d_from.dy},
                    "to": {"dx": piece.d_to.dx, "dy": piece.d_to.dy},
                })
            else:
                pieces.append({
                    "type": "slide",
                    "dir": {"dx": piece.direction.dx, "dy": piece.direction.dy},
                    "from_point": piece.from_id,
                    "to_point": piece.to_id,
                })
        gamma_payload = {
            "color": g.color.value,
            "kind": g.kind,
            "level": g.level,
            "waist": g.waist.value,
            "achieved_at": {
                "dx": g.waist.achieved_at.dx,
                "dy": g.waist.achieved_at.dy,
            },
            "pieces": pieces,
        }
    payload = {
        "gamma": gamma_payload,
        "color": cert.color.value,
        "F": list(cert.f_ids),
        "H": list(cert.h_ids),
        "G": list(cert.g_ids),
        "lines": [
            {
                "red": c.line.red_id,
                "blue": c.line.blue_id,
                "provenance": c.provenance.label(),
            }
            for c in cert.lines
        ],
        "total": cert.total,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"

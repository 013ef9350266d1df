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

Every certificate is filled by one loop, ``_draw``, from slots that each
hold a quota, lazy candidates and a label naming the slot when it falls
short.  A flank pool is a generator, read only by the flank pick and the
recharges that use it, each only as far as its own line, over the boundary
steps of one table (``_Steps``): a family of m points walks its levels up
to the middle and reads each level above off its antipodal one.

Before the certificate is returned, every certified line is recounted once
by ``geometry.is_balanced``, which shares nothing with the rotations and
curves that chose it; the cubic ``oracle.enumerate_naive`` is not needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Optional

from .geometry import (
    BalancedLinesError,
    Color,
    DirectedLine,
    Direction,
    GuaranteeViolation,
    Instance,
    ccw_arc_contains,
    direction_of,
    halfplane_weight,
    is_balanced,
)
from .oracle import BalancedLine
from .rotation import (
    RotationSpec,
    Transition,
    antipodal_transitions,
    run_rotation,
    transition_low,
    transitions_at,
)
from .gamma import (
    Gamma,
    _split_fhg,
    find_gamma,
    in_central_region,
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
class Certificate:
    gamma: Optional[Gamma]
    color: Color
    f_ids: tuple[int, ...]
    h_ids: tuple[int, ...]
    g_ids: tuple[int, ...]
    lines: tuple[CertifiedLine, ...]

    @property
    def total(self) -> int:
        return len(self.lines)


class _Steps(dict):
    """Boundary steps of the rotations one certificate assembly reads, by (family, level).

    Each is ``transitions_at`` at ``transition_low`` of a rotation of the
    family from the achieving direction.  Level j of a family of m points
    is walked in full, so its closure is checked, when j <= m - 1 - j; a
    higher level is read off the walked level m - 1 - j by
    ``rotation.antipodal_transitions``.  So the m levels cost ceil(m/2)
    walks.  The table lives as long as one assembly.
    """

    def __init__(self, inst: Instance, gamma: Gamma):
        super().__init__()
        self.inst, self.gamma = inst, gamma

    def __missing__(self, key: tuple[tuple[int, ...], int]) -> list[Transition]:
        family, level = key
        inst, theta = self.inst, self.gamma.waist.achieved_at
        mirror = len(family) - 1 - level
        if mirror < level:
            steps = antipodal_transitions(self[family, mirror], theta, inst)
        else:
            trace = run_rotation(RotationSpec(frozenset(family), level, theta), inst)
            steps = transitions_at(trace, transition_low(self.gamma.color, inst.delta), inst)
        self[key] = steps
        return steps


def _flank_pool(inst: Instance, gamma: Gamma, steps: _Steps, family: tuple[int, ...],
                level: int):
    """Balanced central-strip boundary steps of one flank rotation, lazily, in sweep order.

    Both step directions qualify: each spans a balanced line when the
    crossed point has the opposite color, and recharges may consume either.
    Balance is read first, in O(1) per step; only balanced steps pay for
    ``in_central_region``, which evaluates the curve twice, and only as far
    as the caller reads.
    """
    return (t for t in steps[family, level]
            if t.is_balanced and in_central_region(inst, gamma, t))


def _line_of(inst: Instance, t: Transition) -> BalancedLine:
    a, b = inst.point(t.pivot_id), inst.point(t.crossed_id)
    red, blue = (a.id, b.id) if a.color is Color.RED else (b.id, a.id)
    return BalancedLine(red, blue, (inst.delta, inst.delta))


def _levels(count: int) -> list[tuple[int, int]]:
    """(level, quota) of levels 0..ceil(count/2)-1 of a family of ``count`` points.

    Each level must give two lines, the middle level of an odd count one.
    """
    return [(level, 1 if 2 * level + 1 == count else 2) for level in range((count + 1) // 2)]


def _draw(slots, used: set[tuple[int, int]]) -> list[CertifiedLine]:
    """The lines of every slot ``(quota, candidates, label)``, slot by slot.

    ``candidates`` yields a slot's lines lazily, None for a candidate
    without one, so nothing past a met quota is computed.  Lines already in
    ``used`` are skipped, and every line taken is added to it; a slot that
    falls short of its quota raises.
    """
    lines: list[CertifiedLine] = []
    for quota, candidates, label in slots:
        got = 0
        for c in candidates:
            if c is None or c.line.key in used:
                continue
            used.add(c.line.key)
            lines.append(c)
            got += 1
            if got == quota:
                break
        if got < quota:
            raise GuaranteeViolation(f"{label} yielded {got} of {quota} distinct lines")
    return lines


def flank_lines(inst: Instance, gamma: Gamma, f_ids: tuple[int, ...],
                h_ids: tuple[int, ...], steps: Optional[_Steps] = None) -> list[CertifiedLine]:
    """One balanced central-strip departure from delta per flank level.

    The guaranteed departure lies on the closed half turn that starts at the
    flank's own reference line (``ccw_arc_contains``): the achieving line for
    the first flank, its antipodal partner for the second.  That keeps the
    picks distinct across levels and flanks.  Each pick is the first such
    departure of its ``_flank_pool``, which is read only up to it.  The
    pools come from ``steps`` (a new table when None), so the two flanks'
    m levels cost ceil(m/2) walks each.
    """
    steps = _Steps(inst, gamma) if steps is None else steps

    def departures(name: str, family: tuple[int, ...], base: Direction, level: int):
        for t in _flank_pool(inst, gamma, steps, family, level):
            if t.from_omega == inst.delta and ccw_arc_contains(base, base.antipode, t.direction):
                yield CertifiedLine(_line_of(inst, t), Provenance(f"flank_{name}", level), t.line)

    theta = gamma.waist.achieved_at
    slots = ((1, departures(name, family, base, level), f"flank {name} level {level}")
             for name, family, base in (("f", f_ids, theta), ("h", h_ids, theta.antipode))
             for level in range(len(family)))
    return _draw(slots, set())


def strip_transitions(inst: Instance, gamma: Gamma,
                      g_ids: tuple[int, ...]) -> list[list[Transition]]:
    """Central-strip boundary transitions of every strip level.

    Level k of a strip of size s runs for k in 0..ceil(s/2)-1; each level
    must contribute at least two transitions whose lines sit inside or on
    the strip at their own direction.
    """
    steps = _Steps(inst, gamma)  # the strip shares no rotation with the flanks
    out = []
    for level in range((len(g_ids) + 1) // 2):
        central = [t for t in steps[g_ids, level] if in_central_region(inst, gamma, t)]
        if len(central) < 2:
            raise GuaranteeViolation(
                f"strip level {level} produced {len(central)} central transitions"
            )
        out.append(central)
    return out


def recharge(inst: Instance, gamma: Gamma, transition: Transition, level: int,
             f_ids: tuple[int, ...], h_ids: tuple[int, ...],
             used: AbstractSet[tuple[int, int]],
             steps: Optional[_Steps] = None) -> Optional[CertifiedLine]:
    """Resolve one transition of strip level ``level`` into a certified line.

    A transition through an opposite-colored point is already balanced: a
    strip line.  A transition through a flank point induces a step back to
    the boundary in that flank's rotation at the level j of the induced
    line, which forces a distinct new balanced departure there: the first
    line of ``_flank_pool`` (flank, j) not in ``used``, read from the pool
    only as far as that line.  j counts the family points other than the
    crossed one, so it is a level 0..|family| - 1 of the flank.  None when
    every departure of that pool is used; whether the paper's recharge step
    rules that out is open.  The pool comes from ``steps``, the table of
    ``flank_lines`` in a certificate, so no flank level is walked twice (a
    new table when None).
    """
    crossed = inst.point(transition.crossed_id)
    if crossed.color is not gamma.color:
        if not transition.is_balanced:
            raise UnclassifiableTransition(
                f"opposite-color transition at {transition.direction} is unbalanced"
            )
        return CertifiedLine(_line_of(inst, transition), Provenance("strip", level),
                             transition.line)
    if crossed.id in f_ids:
        name, family = "f", f_ids
    elif crossed.id in h_ids:
        name, family = "h", h_ids
    else:
        raise UnclassifiableTransition(
            f"crossed point {crossed.id} is neither a flank nor an opposite point"
        )
    g = inst.point(transition.pivot_id)
    d_star = direction_of(g.x - crossed.x, g.y - crossed.y)
    o_crossed = d_star.offset(crossed.x, crossed.y)
    j = 0
    for fid in family:
        p = inst.point(fid)
        if fid != crossed.id and d_star.offset(p.x, p.y) < o_crossed:
            j += 1
    sgn = 1 if gamma.color is Color.RED else -1
    induced = DirectedLine(crossed.x, crossed.y, d_star, (crossed.id, transition.pivot_id))
    w = halfplane_weight(induced, inst)
    if w != inst.delta + sgn:
        raise GuaranteeViolation(
            f"induced flank step at {d_star} has weight {w}, expected {inst.delta + sgn}"
        )
    provenance = Provenance("recharge", level, name, j)
    steps = _Steps(inst, gamma) if steps is None else steps
    departures = (CertifiedLine(_line_of(inst, t), provenance, t.line)
                  for t in _flank_pool(inst, gamma, steps, family, j))
    return next((c for c in departures if c.line.key not in used), None)


def verify_lower_bound(inst: Instance) -> Certificate:
    """Build and fully verify a certificate of at least r balanced lines."""
    gamma = find_gamma(inst)
    cert = _direct_certificate(inst) if gamma is None else _gamma_certificate(inst, gamma)
    _check_certificate(inst, cert)
    return cert


def _direct_certificate(inst: Instance) -> Certificate:
    """Accounting when no level rotation preserves delta.

    Every red level rotation then steps over the boundary in both
    directions; levels k and r-1-k see the same lines from opposite sides,
    so the first half of the levels already yields r distinct lines (one
    from the middle level when r is odd, two from every other level).
    """
    def candidates(level: int):
        trace = run_rotation(RotationSpec(Color.RED, level), inst)
        for t in transitions_at(trace, inst.delta, inst):
            if not t.is_balanced:
                raise GuaranteeViolation(
                    f"unbalanced boundary step in red rotation level {level}"
                )
            yield CertifiedLine(_line_of(inst, t), Provenance("direct", level), t.line)

    slots = ((quota, candidates(level), f"red rotation level {level}")
             for level, quota in _levels(inst.r))
    return Certificate(None, Color.RED, (), (), (), tuple(_draw(slots, set())))


def _gamma_certificate(inst: Instance, gamma: Gamma) -> Certificate:
    f_ids, h_ids, g_ids = _split_fhg(inst, gamma)  # find_gamma returns preserving curves
    steps = _Steps(inst, gamma)
    picks = flank_lines(inst, gamma, f_ids, h_ids, steps)
    used = {c.line.key for c in picks}
    per_level = strip_transitions(inst, gamma, g_ids)

    def resolved(level: int):
        return (recharge(inst, gamma, t, level, f_ids, h_ids, used, steps)
                for t in per_level[level])

    slots = ((quota, resolved(level), f"strip level {level}")
             for level, quota in _levels(len(g_ids)))
    return Certificate(gamma, gamma.color, f_ids, h_ids, g_ids,
                       tuple(picks + _draw(slots, used)))


def _check_certificate(inst: Instance, cert: Certificate) -> None:
    keys = [c.line.key for c in cert.lines]
    if len(set(keys)) != len(keys):
        raise CertificateFailure("certified lines are not pairwise distinct")
    for red, blue in keys:
        colors = (inst.point(red).color, inst.point(blue).color)
        if colors != (Color.RED, Color.BLUE) or not is_balanced(red, blue, inst):
            raise CertificateFailure(f"line {(red, blue)} is not a balanced red/blue pair")
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
        anchors = g.sr.anchors  # the family's curves are arc-only: one arc per anchor
        pieces = [{
            "type": "arc",
            "pivot": a,
            "from": {"dx": u.dx, "dy": u.dy},
            "to": {"dx": v.dx, "dy": v.dy},
        } for (u, a), (v, _) in zip(anchors, anchors[1:] + anchors[:1])]
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

"""Discrete-event simulation of level rotations.

A level rotation for a subset P and level k moves a directed line through a
full counterclockwise turn so that it always contains exactly one point of P
(the pivot) and keeps exactly k points of P strictly to its right.  The
combinatorial state changes only at directions pointing from the pivot
toward (or away from) another point:

* hitting a point of P swaps the pivot and leaves the count at k;
* hitting any other point moves it across the line and steps the weight of
  the right halfplane by that point's weight.

A point met by the head of the line (the ray in the sweep direction) moves
from the left halfplane to the right one; a point met by the tail moves the
other way.  All of this is computed with exact sign tests on the critical
directions, walked in cyclic order from the start direction through each
pivot's fences (``Instance.fences``).  ``geometry.is_balanced`` shares
nothing with that table and recounts every line a certificate takes from
the walks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Union

from .geometry import (
    FENCE_KEY,
    BalancedLinesError,
    Color,
    DirectedLine,
    Direction,
    GuaranteeViolation,
    Instance,
    VERTICAL,
    _unordered,
    direction_key,
    just_after_keys,
)
from .oracle import BalancedLine


class UnknownPoint(BalancedLinesError):
    """A rotation subset names a point id the instance does not have."""


class WrongSubset(BalancedLinesError):
    """The operation needs an all-red or all-blue rotation subset."""


class EvenRedCount(BalancedLinesError):
    """The halving construction needs an odd number of red points."""


class LevelOutOfRange(BalancedLinesError):
    """The requested level is not in [0, |P| - 1] or violates a coupling bound."""


Subset = Union[Color, frozenset]


@dataclass(frozen=True)
class RotationSpec:
    """Which points rotate (a color or an explicit id set), at which level."""

    subset: Subset
    level: int
    start_direction: Direction = VERTICAL

    def resolve(self, inst: Instance) -> tuple[int, ...]:
        if isinstance(self.subset, Color):
            ids = inst.ids_of(self.subset)
        else:
            ids = tuple(sorted(self.subset))
            unknown = [i for i in ids if not 0 <= i < inst.n]
            if unknown:
                raise UnknownPoint(f"rotation subset names unknown point ids {unknown}")
        if not ids:
            raise LevelOutOfRange("rotation subset is empty")
        if not 0 <= self.level <= len(ids) - 1:
            raise LevelOutOfRange(
                f"level {self.level} invalid for a subset of {len(ids)} points"
            )
        return ids


class RotationEvent(NamedTuple):
    """One state change of a rotation: where, the pivots, the end and the weights.

    The event is a pivot change exactly when ``pivot_after != pivot_before``
    (the crossed point is in the subset), and a weight step otherwise.
    ``head`` tells whether the crossed point lies ahead of the pivot along
    the direction (met by the head of the line) or behind it (the tail).
    A weight step across a boundary is a transition, the paper's step:
    ``transitions_at`` returns the trace's own events, and
    ``antipodal_transitions`` mirrors them.  The line through the pivot and
    the crossed point is not stored; few readers need it, and ``line_in``
    builds it from the instance.
    """

    direction: Direction
    pivot_before: int
    pivot_after: int
    crossed_id: int
    head: bool
    omega_before: int
    omega_after: int

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def line_in(self, inst: Instance) -> DirectedLine:
        """The line through the pivot before the event and the crossed point."""
        p = self.pivot_before
        return DirectedLine(inst.xs[p], inst.ys[p], self.direction)

    def balanced_in(self, inst: Instance) -> bool:
        """Whether the line of a weight step (``line_in``) is balanced, in O(1).

        The instance weighs 2 delta, so when the pivot and the crossed point
        differ in weight (a red and a blue point, together 0) the line is
        balanced exactly when its right weight at the instant of the step is
        delta.  That weight is ``omega_before`` for a head crossing and
        ``omega_after`` for a tail crossing.
        """
        ws = inst.ws
        instant = self.omega_before if self.head else self.omega_after
        return ws[self.pivot_before] != ws[self.crossed_id] and instant == inst.delta


@dataclass(frozen=True)
class RotationTrace:
    """The full cyclic event sequence of one level rotation.

    The state between events is (pivot, omega); the first interval starts
    just past ``spec.start_direction`` and the walk returns to the initial
    state after a full turn.  The subset's ids are ``spec.resolve(inst)``.
    """

    spec: RotationSpec
    initial_pivot: int
    initial_omega: int
    events: tuple[RotationEvent, ...]

    def intervals(self) -> Iterator[tuple[Direction, Direction, int, int]]:
        """Yield (from, to, pivot, omega) for every inter-event interval.

        There are events: a full turn meets every other point of the instance.
        """
        start = d = self.spec.start_direction
        pivot, omega = self.initial_pivot, self.initial_omega
        for ev in self.events:
            if ev.direction != d:
                yield (d, ev.direction, pivot, omega)
            d, pivot, omega = ev.direction, ev.pivot_after, ev.omega_after
        if d != start:
            yield (d, start, pivot, omega)


def run_rotation(spec: RotationSpec, inst: Instance) -> RotationTrace:
    """Simulate one full turn of the rotation described by ``spec``.

    The trace of ``walk_rotation``, drained: its start state, then every
    event of the turn.  Draining it runs the walk's closure check.
    """
    walk = walk_rotation(spec, inst)
    start = next(walk)
    return RotationTrace(spec, *start, tuple(walk))


def walk_rotation(spec: RotationSpec, inst: Instance) -> Iterator:
    """The walk of ``run_rotation``, one step at a time.

    Yields the start state ``(initial_pivot, initial_omega)``, the fields
    of ``RotationTrace`` between its spec and its events, then each
    ``RotationEvent`` in turn order.  Once drained, it raises
    GuaranteeViolation unless the walk closed on its start state.  A reader
    that stops early pays only for the steps it took: the start state needs
    no fences, and the fences of pivots the walk has not reached are not
    built.

    The start state is read from ``geometry.just_after_keys`` at the start
    direction: the initial pivot is the subset point of rank ``level``
    among the subset's keys (exactly ``level`` subset points right of its
    line just past the start direction), and the initial weight sums the
    weight row (``Instance.ws``) over the points whose keys are below the
    pivot's, in O(n + m log m) for a subset of m points.  The walk then
    reads the pivot's fences (``Instance.fences``) from the start direction
    on: first the keys above it, up to vertical, then the wrap past
    vertical up to the start direction inclusive.  A fence toward or away
    from a subset point hands the pivot over, and the walk goes on from the
    same direction in the new pivot's fences, found by bisection; any other
    fence is a weight step.  Either event keeps the fence's ``head`` bool.
    After the instance's fences are built, O(n log n) per point and once
    per instance, each event costs O(1) and each pivot change O(log n).
    Events are tuples, built in C, and carry no line: each step reads the
    weight row and builds nothing but its event (``RotationEvent.line_in``
    builds the line where it is read).
    """
    ids = spec.resolve(inst)
    d0 = spec.start_direction
    ws = inst.ws
    subset = frozenset(ids)

    keys = just_after_keys(d0, inst.points)
    pivot = sorted(ids, key=keys.__getitem__)[spec.level]
    key_p = keys[pivot]
    omega = sum(w for w, key in zip(ws, keys) if key < key_p)

    initial_pivot, initial_omega = pivot, omega
    yield initial_pivot, initial_omega
    key0 = direction_key(VERTICAL, d0)
    key, wrapped = key0, False
    new = tuple.__new__  # builds a record from its fields in C, past NamedTuple's Python __new__
    while True:
        fences = inst.fences(pivot)
        lo = bisect_right(fences, key, key=FENCE_KEY)
        stop = bisect_right(fences, key0, key=FENCE_KEY)
        order = range(lo, stop) if wrapped else chain(range(lo, len(fences)), range(stop))
        for i in order:
            key, d, other, head = fences[i]
            if other in subset:
                new_omega = omega if head else omega + ws[pivot] - ws[other]
                yield new(RotationEvent, (d, pivot, other, other, head, omega, new_omega))
                pivot, omega = other, new_omega
                wrapped = wrapped or i < lo  # indices below lo come after the wrap
                break
            new_omega = omega + (ws[other] if head else -ws[other])
            yield new(RotationEvent, (d, pivot, pivot, other, head, omega, new_omega))
            omega = new_omega
        else:
            break

    if pivot != initial_pivot or omega != initial_omega:
        raise GuaranteeViolation("rotation walk failed to close after a full turn")


def transition_low(color: Color, delta: int) -> int:
    """Lower value of the weight boundary relevant to the given subset color."""
    return delta if color is Color.RED else delta - 1


def _delta_bound(color: Color, delta: int) -> tuple[int, int]:
    """``(sign, bound)``: a right weight w preserves delta exactly when ``sign * w <= bound``.

    Red subsets keep w <= delta, blue ones w >= delta.  The one statement
    of that bound: ``_preserves_delta`` reads it, and ``gamma.build_splice``
    compares each interval's weight with it directly.
    """
    return (1, delta) if color is Color.RED else (-1, -delta)


def _preserves_delta(color: Color, omegas, delta: int) -> bool:
    """One-sided preservation of right-halfplane weights: red <= delta, blue >= delta.

    Every weight is held to ``_delta_bound``.  Stops at the first weight
    that breaks it, so ``omegas`` may be a lazy iterable.
    """
    sign, bound = _delta_bound(color, delta)
    return all(sign * w <= bound for w in omegas)


def transitions_at(trace: RotationTrace, low: int) -> list[RotationEvent]:
    """The trace's weight steps between ``low`` and ``low + 1``: its own events.

    A weight step is an event whose pivot stays.  It moves the weight by
    the crossed point's weight, one up or down, so its two weights are
    ``low`` and ``low + 1`` exactly when they sum to ``2 * low + 1``.  A
    pivot change moves it by 0 or 2 (``walk_rotation``), so its sum is
    even and never matches: one integer comparison per event, and nothing
    is built per step.  ``RotationEvent.balanced_in`` tells whether a
    step's line is balanced and ``RotationEvent.line_in`` builds it.
    """
    crossing = 2 * low + 1
    return [ev for ev in trace.events if ev.omega_before + ev.omega_after == crossing]


def antipodal_transitions(steps: list[RotationEvent], theta: Direction,
                          inst: Instance) -> list[RotationEvent]:
    """The steps of level m - 1 - j, read off the steps of level j.

    ``steps`` are ``transitions_at(trace, low)`` for the level-j rotation
    of a family of m points from ``theta``; the result equals
    ``transitions_at`` of the level-(m - 1 - j) rotation from ``theta`` at
    ``2 delta - w - low - 1``, where w is the weight of the family's color.
    So the boundary of ``transition_low`` maps onto itself.

    The lemma: the line through the pivot p at direction d + pi, reversed,
    is the line through p at d, and its right side is the other's left.  So
    when j family points lie right of the line at d, the m - 1 - j others
    lie right of the line at d + pi: level m - 1 - j pivots on p at d + pi
    exactly when level j pivots on p at d, and crosses the same points.
    The instance weighs 2 delta, so the right weight there is
    2 delta - w - omega.  Hence each step of level j at d is a step of level
    m - 1 - j at d + pi: a weight step with the antipodal direction, the
    same pivot before and after, the same crossed point, ``head`` negated
    (a point ahead of the line is behind its reverse) and omegas
    2 delta - w - omega.  Its ``balanced_in`` agrees with the step's, since
    the line through the two points is the same.  A walk from ``theta``
    meets them half a turn later: first the steps of (theta + pi, theta],
    then those of (theta, theta + pi]; a step at theta maps to theta + pi,
    and a step at theta + pi maps to theta, which sorts last.  A pivot meets
    one fence per direction, so no two steps share a direction.
    """
    # the steps of (theta + pi, theta] are those of key halves 3 (right of theta) and 4 (theta)
    split = bisect_left(steps, 3, key=lambda ev: direction_key(theta, ev.direction)[0])
    ws, total = inst.ws, 2 * inst.delta
    new = tuple.__new__
    out = []
    for ev in chain(steps[split:], steps[:split]):
        p = ev.pivot_before
        mirror = total - ws[p]
        out.append(new(RotationEvent, (
            ev.direction.antipode, p, p, ev.crossed_id, not ev.head,
            mirror - ev.omega_before, mirror - ev.omega_after,
        )))
    return out


def is_delta_preserving(trace: RotationTrace, inst: Instance) -> bool:
    """Whether the right-halfplane weight never crosses its color boundary.

    An all-red rotation preserves when its weight stays <= delta or stays
    > delta for the whole turn; an all-blue rotation when it stays >= delta
    or stays < delta.  Its weight moves in steps of one, so that is having
    no boundary step (``transitions_at`` at ``transition_low``).  Kept
    public as the paper's preservation condition for plain rotations:
    ``test_rotation.py::test_preserving_when_weight_stays_low`` and
    ``test_separated_rotation_not_preserving`` check it.
    """
    ids = set(trace.spec.resolve(inst))
    color = next((c for c in Color if ids == set(inst.ids_of(c))), None)
    if color is None:
        raise WrongSubset("subset is neither all red nor all blue")
    return not transitions_at(trace, transition_low(color, inst.delta))


def find_balanced_halving(inst: Instance) -> BalancedLine:
    """A balanced line that also halves the point set (odd red count only).

    Runs the all-red rotation at the middle level; its weight profile must
    cross the delta boundary, and every such step spans a balanced line with
    (n - 2) / 2 points strictly on each side.
    """
    if inst.r % 2 == 0:
        raise EvenRedCount(f"r={inst.r} is even")
    trace = run_rotation(RotationSpec(Color.RED, inst.r // 2), inst)
    steps = transitions_at(trace, inst.delta)
    if not steps:
        raise GuaranteeViolation("middle-level rotation produced no delta steps")
    t = steps[0]
    if not t.balanced_in(inst):
        raise GuaranteeViolation("middle-level delta step is not balanced")
    half = (inst.n - 2) // 2
    sides = _side_counts(t.line_in(inst), inst)
    if sides != (half, half):
        raise GuaranteeViolation(f"expected a halving line, sides are {sides}")
    red, blue = t.pivot_before, t.crossed_id
    if inst.point(red).color is not Color.RED:
        red, blue = blue, red
    return BalancedLine(red, blue)


def _side_counts(line: DirectedLine, inst: Instance) -> tuple[int, int]:
    """(left, right): the points strictly on each side of the line, by ``Direction.offset``."""
    d = line.direction
    o = d.offset(line.ax, line.ay)
    offsets = [d.offset(x, y) for x, y in zip(inst.xs, inst.ys)]
    return sum(1 for v in offsets if v > o), sum(1 for v in offsets if v < o)


def check_level_coupling(inst: Instance, j: int) -> bool:
    """Whether red level j and blue level j + delta cross their boundaries together.

    At every direction critical for neither, red's weight is above delta
    exactly when blue's is at least delta.  Take the red pivot R and the
    blue pivot B there.  If B is right of R's line, R's right side holds B
    and the j + delta blues right of B, but only j reds (weight at least
    delta + 1), and B's at most those j reds (weight at least delta).  If
    R is right of B's line, B's right side holds R and the j reds right of
    R (weight at most delta - 1), and R's at most the j + delta blues
    right of B (weight at most delta).  So both traces step across
    ``transition_low`` at the same directions, from coupled initial
    weights.  Hence red level k and blue level k + delta, of equal waist
    r - 2k - 2, never both preserve delta, and a blue level below delta
    never does (its weight is at most its level).  A False return signals
    an implementation bug.
    """
    if not inst.r:
        raise LevelOutOfRange("no red point: r=0 has no red rotation to couple")
    if not 0 <= j <= inst.r // 2:
        raise LevelOutOfRange(f"j={j} outside [0, {inst.r // 2}]")
    if j + inst.delta > inst.b - 1:
        raise LevelOutOfRange(f"blue level {j + inst.delta} exceeds b-1={inst.b - 1}")
    delta = inst.delta
    red = run_rotation(RotationSpec(Color.RED, j), inst)
    blue = run_rotation(RotationSpec(Color.BLUE, j + delta), inst)
    steps = [[t.direction for t in transitions_at(trace, transition_low(color, delta))]
             for trace, color in ((red, Color.RED), (blue, Color.BLUE))]
    return steps[0] == steps[1] and (red.initial_omega > delta) == (blue.initial_omega >= delta)


def trace_to_jsonl(trace: RotationTrace) -> Iterator[str]:
    """One JSON record per event: direction, kind, pivot and weight."""
    import json

    for ev in trace.events:
        yield json.dumps(
            {
                "dir": {"dx": ev.direction.dx, "dy": ev.direction.dy},
                "kind": "weight_change" if ev.pivot_after == ev.pivot_before else "pivot_change",
                "pivot": ev.pivot_after,
                "omega": ev.omega_after,
                "crossed": ev.crossed_id,
                "end": "head" if ev.head else "tail",
                "omega_before": ev.omega_before,
            },
            separators=(",", ":"),
        )

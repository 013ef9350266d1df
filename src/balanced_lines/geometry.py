"""Exact planar primitives for two-colored point sets.

Every predicate in this module works on integer or Fraction coordinates and
reduces to sign computations, so side tests, sweep orderings and weight sums
are exact. Floating point appears nowhere below the SVG rendering layer
(``tests/test_source_hygiene.py`` rejects float literals, ``float(`` calls
and ``math`` imports other than ``gcd`` in every other module).  Angular
sort keys (``direction_key``) lead with an integer prefix of the exact
quotient, so comparing them is integer work in C; the exact ``Ratio``
decides only between keys whose prefixes tie.  Slopes are compared the
same way: ``slopes`` gives their 64-bit prefixes, and the exact ``slope``
is asked only where two prefixes tie.

The value records of the rotation path, ``Direction``, ``DirectedLine``
and ``rotation.RotationEvent`` (a transition is one such event), are tuples
(``typing.NamedTuple``): they build, hash and compare for equality in C.
Being tuples, they equal plain tuples of the same values
(``Direction(0, 1) == (0, 1)``), and they cannot be ordered: ``<``, ``<=``,
``>`` and ``>=`` raise TypeError, because tuple order is not angular order
(``direction_key(VERTICAL, ·)`` is: from vertical, counterclockwise).

The package keeps no state between instances: what an instance needs again
(its fences, its rows) is kept on the instance.

Conventions used throughout the package:

* a point is blue (+1) or red (-1); the weight of an open halfplane is the
  sum of the weights of the points strictly inside it;
* an instance has ``r`` red and ``b = r + 2*delta`` blue points with
  ``delta >= 0``;
* a directed line splits the plane into a left and a right open halfplane;
  a point ``x`` is left of the line through ``a`` with direction ``d``
  exactly when ``cross(d, x - a) > 0``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, groupby
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

Coord = Union[int, Fraction]

VERTICAL: "Direction"


class BalancedLinesError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BalancedLinesError):
    """An input point set violates an instance invariant."""


class CollinearTriple(ValidationError):
    def __init__(self, ids: tuple[int, int, int]):
        self.ids = ids
        super().__init__(f"points {ids} are collinear")


class DuplicateAbscissa(ValidationError):
    def __init__(self, ids: tuple[int, int]):
        self.ids = ids
        super().__init__(f"points {ids} share an x coordinate")


class ColorImbalance(ValidationError):
    def __init__(self, r: int, b: int):
        self.r = r
        self.b = b
        super().__init__(
            f"need b >= r and b - r even, got r={r} b={b}"
        )


class GuaranteeViolation(BalancedLinesError):
    """A step the construction proves must exist could not be found."""


class SameColorPair(BalancedLinesError):
    """A balanced-line query was made for two points of equal color."""


class BoundTooSmall(BalancedLinesError):
    """Random generation cannot satisfy the instance invariants."""


class Color(Enum):
    RED = "R"
    BLUE = "B"

    @property
    def weight(self) -> int:
        return 1 if self is Color.BLUE else -1


_PREFIX_BITS = 64
_PREFIX_SCALE = 1 << _PREFIX_BITS


def slope(dx: Coord, dy: Coord) -> tuple[int, int]:
    """Canonical slope of a non-vertical vector, as a hashable key.

    The reduced quotient dy/dx as (numerator, denominator) with a positive
    denominator: two vectors share a slope exactly when they are parallel,
    whichever their signs, and int and Fraction inputs give equal keys.
    The exact per-pair definition: ``slopes`` gives only the 64-bit prefix
    of many slopes at once, and its readers ask this where prefixes tie.
    """
    if isinstance(dx, int) and isinstance(dy, int):
        if dx < 0:
            dx, dy = -dx, -dy
        g = gcd(dx, dy)
        return dy // g, dx // g
    q = Fraction(dy) / dx
    return q.numerator, q.denominator


def slopes(px: Coord, py: Coord, points: Iterable[tuple[Coord, Coord]]) -> list[int]:
    """The 64-bit prefix of the slope from (px, py) to each of the ``(x, y)`` points.

    The one batched slope loop of the package: ``Instance.fence_rows``,
    ``validate`` and ``gen_random`` read it.  The prefix of a slope dy/dx
    is ``floor(2**64 * dy / dx)``, computed as ``(dy * 2**64) // dx``: one
    exact floor division, the same formula for int and Fraction
    differences, with no ``gcd`` and no tuple per pair.  A floor is
    monotone, so the prefixes order the slopes, and parallel vectors get
    equal prefixes: distinct prefixes prove distinct slopes, and only
    pairs whose prefixes tie need the exact ``slope`` to tell them apart
    or to order them.  No point may share the abscissa px.
    """
    return [((y - py) * _PREFIX_SCALE) // (x - px) for x, y in points]


_MAX_COORD_CHARS = 1000
_MAX_COORD_EXPONENT = 1000
_INT_LIMIT = 10 ** _MAX_COORD_CHARS


def _as_exact(v) -> Coord:
    """Coerce a coordinate to int or Fraction, rejecting floats.

    Strings longer than ``_MAX_COORD_CHARS`` or with a decimal exponent
    beyond ``_MAX_COORD_EXPONENT`` raise ValidationError before parsing, so
    an input such as ``"1e999999999"`` never expands into a huge integer.
    Every coordinate, a JSON number or a parsed string alike, is then held
    to the same cap: its canonical string, the form ``instance_to_json``
    writes, must fit in ``_MAX_COORD_CHARS`` characters, so every instance
    that loads can be written and read back.  A string of ASCII digits,
    with an optional leading ``-``, within ``_MAX_COORD_CHARS`` is decided
    first, by ``int`` alone: it has no exponent, and its value fits the cap.
    Every other string is checked for its exponent, then parsed by ``Fraction``.
    """
    if isinstance(v, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(v, str):
        digits = v[1:] if v[:1] == "-" else v
        if digits.isascii() and digits.isdigit() and len(v) <= _MAX_COORD_CHARS:
            return int(v)
        _, e, exponent = v.lower().rpartition("e")
        try:
            huge_exponent = bool(e) and abs(int(exponent)) > _MAX_COORD_EXPONENT
        except ValueError:
            huge_exponent = False  # no integer after the "e": Fraction rejects v below
        if len(v) > _MAX_COORD_CHARS or huge_exponent:
            raise ValidationError(
                f"coordinate string over {_MAX_COORD_CHARS} characters or with an"
                f" exponent beyond ±{_MAX_COORD_EXPONENT}"
            )
        v = Fraction(v)
    if isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    if isinstance(v, int):
        fits = -_INT_LIMIT // 10 < v < _INT_LIMIT
    elif isinstance(v, Fraction):  # both terms under the cap first, so ``str`` stays cheap
        fits = (abs(v.numerator) < _INT_LIMIT and v.denominator < _INT_LIMIT
                and len(str(v)) <= _MAX_COORD_CHARS)
    else:
        raise TypeError(f"coordinates must be exact (int, Fraction or string), got {type(v)!r}")
    if not fits:
        raise ValidationError(f"coordinate whose canonical string is over {_MAX_COORD_CHARS} characters")
    return v


@dataclass(frozen=True)
class LabeledPoint:
    """A colored point with a stable index inside its instance."""

    id: int
    x: Coord
    y: Coord
    color: Color

    @property
    def weight(self) -> int:
        return self.color.weight


_new = tuple.__new__  # builds a tuple-backed record from its fields in C


def direction_of(vx: Coord, vy: Coord) -> "Direction":
    """The direction of a nonzero vector, as a primitive integer vector.

    The one direction constructor of the package, which keeps no state
    between instances.  The record is built from its fields in C
    (``tuple.__new__``), past ``NamedTuple``'s Python ``__new__``.
    """
    if vx == 0 and vy == 0:
        raise ValueError("zero vector has no direction")
    if isinstance(vx, int) and isinstance(vy, int):
        ix, iy = vx, vy
    else:
        fx, fy = Fraction(vx), Fraction(vy)
        scale = fx.denominator * fy.denominator // gcd(
            fx.denominator, fy.denominator
        )
        ix, iy = int(fx * scale), int(fy * scale)
    g = gcd(ix, iy)
    return _new(Direction, (ix // g, iy // g))


def _unordered(self, other):
    raise TypeError(f"{type(self).__name__} values have no order")


class Direction(NamedTuple):
    """An exact direction, identified up to positive scaling.

    Stored as a primitive integer vector so equality and hashing are
    canonical.  The cyclic order starts at the vertical direction (0, 1)
    and advances counterclockwise; comparisons are sign computations only.
    A tuple ``(dx, dy)`` underneath, with no instance ``__dict__``.  ``of``
    is ``direction_of`` behind a memo, which the package never calls.
    """

    dx: int
    dy: int

    of = staticmethod(lru_cache(maxsize=1 << 16)(direction_of))

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @property
    def antipode(self) -> "Direction":
        dx, dy = self
        return _new(Direction, (-dx, -dy))

    @property
    def perp_ccw(self) -> "Direction":
        """The direction a quarter turn counterclockwise from this one."""
        return direction_of(-self.dy, self.dx)

    def cross(self, other: "Direction") -> int:
        return self.dx * other.dy - self.dy * other.dx

    def offset(self, x: Coord, y: Coord) -> Coord:
        """Signed position of the line through (x, y) parallel to this direction.

        Larger offsets are further to the left of the direction, so a point
        is right of a parallel line exactly when its offset is smaller.
        """
        return self.dx * y - self.dy * x

    def __repr__(self) -> str:
        return f"Direction({self.dx}, {self.dy})"


class Ratio:
    """An exact quotient ordered by cross multiplication.

    Cheaper than Fraction inside sort keys: construction skips gcd
    normalization and comparisons stay in plain integers.  ``den > 0``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        return self.num * other.den == other.num * self.den

    def __lt__(self, other) -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other) -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other) -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other) -> bool:
        return self.num * other.den >= other.num * self.den

    def __repr__(self) -> str:
        return f"Ratio({self.num}/{self.den})"


_RATIO_ZERO = Ratio(0, 1)

KEY_START = (0, 0, _RATIO_ZERO)  # before everything: the base itself, walks that begin there
_KEY_ANTIPODE = (2, 0, _RATIO_ZERO)
_KEY_BASE = (4, 0, _RATIO_ZERO)


def direction_key(base: Direction, d: Direction) -> tuple:
    """Sort key for the counterclockwise angle from ``base`` to ``d``.

    ``(half, prefix, Ratio(num, den))``: ``half`` is 1 strictly left of
    ``base``, 2 at its antipode, 3 strictly right and 4 at ``base`` itself,
    which sorts last (angle treated as a full turn), matching walks whose
    initial state lives just past the start direction.  Within a half the
    angle grows with ``num/den`` (minus the cotangent, ``den > 0``), and
    ``prefix`` is ``floor(num * 2**64 / den)``.  A floor is monotone, so
    when two prefixes differ they already order the keys, by integer
    comparisons alone; only two keys whose prefixes tie reach the exact
    ``Ratio`` comparison.  The axis halves and ``KEY_START`` carry prefix
    0.  The one angle key of the package, which keeps no state between
    instances.
    """
    bx, by, dx, dy = base.dx, base.dy, d.dx, d.dy
    c = bx * dy - by * dx
    num = -(bx * dx + by * dy)
    if c == 0:
        return _KEY_BASE if num < 0 else _KEY_ANTIPODE
    if c > 0:
        return (1, (num << _PREFIX_BITS) // c, Ratio(num, c))
    return (3, (-num << _PREFIX_BITS) // -c, Ratio(-num, -c))


direction_key_from = lru_cache(maxsize=1 << 18)(direction_key)  # for callers outside the package


def ccw_arc_contains(d_from: Direction, d_to: Direction, t: Direction) -> bool:
    """Whether t lies on the counterclockwise arc from d_from to d_to, inclusive.

    Integer cross and dot products only: directions are primitive vectors,
    so t is an endpoint exactly when it is parallel to it (cross 0) and
    points the same way (dot positive).  ``Direction ==`` would cost more,
    since the order guard sends it through Python's generic comparison.
    """
    fx, fy = d_from
    ex, ey = d_to
    x, y = t
    ct = fx * y - fy * x
    ce = x * ey - y * ex  # t.cross(d_to)
    if (ct == 0 and fx * x + fy * y > 0) or (ce == 0 and x * ex + y * ey > 0):
        return True
    cb = fx * ey - fy * ex
    kt = 1 if ct > 0 else (2 if ct == 0 else 3)
    kb = 1 if cb > 0 else (2 if cb == 0 else 3)
    if kt != kb:
        return kt < kb
    if kt == 2:
        return False
    return ce > 0


def direction_between(u: Direction, v: Direction) -> Direction:
    """A direction strictly inside the counterclockwise arc from u to v.

    Branches on the cross product; only parallel endpoints read the dot
    product, which tells u == v (an empty arc: ValueError) from antipodal
    ones, with no ``Direction ==``.
    """
    c = u.cross(v)
    if c > 0:
        return direction_of(u.dx + v.dx, u.dy + v.dy)
    if c < 0:
        return direction_of(-(u.dx + v.dx), -(u.dy + v.dy))
    if u.dx * v.dx + u.dy * v.dy > 0:
        raise ValueError("empty arc")
    return u.perp_ccw  # antipodal endpoints


class DirectedLine(NamedTuple):
    """An oriented line through an exact anchor point.

    ``span`` records the instance points the line passes through when it was
    built from them: ``(a, b)`` for a line spanned by two points (direction
    from a to b), or ``(pivot,)`` for a pivot-and-direction line.
    """

    ax: Coord
    ay: Coord
    direction: Direction
    span: tuple[int, ...] = ()

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def offset(self, frame: Direction) -> Coord:
        """Signed position of this line among lines parallel to ``frame``.

        Only meaningful when the line is parallel to ``frame``; larger
        offsets are further to the left of the frame direction.
        """
        return frame.offset(self.ax, self.ay)

    @staticmethod
    def through_points(inst: "Instance", id_a: int, id_b: int) -> "DirectedLine":
        a, b = inst.point(id_a), inst.point(id_b)
        return DirectedLine(a.x, a.y, direction_of(b.x - a.x, b.y - a.y), (id_a, id_b))

    @staticmethod
    def pivot_direction(inst: "Instance", pivot_id: int, direction: Direction) -> "DirectedLine":
        p = inst.point(pivot_id)
        return DirectedLine(p.x, p.y, direction, (pivot_id,))


def just_after_keys(d: Direction, points: Sequence[LabeledPoint]) -> list[tuple[Coord, Coord]]:
    """Where each point lies once a line at direction ``d`` turns a hair past it.

    A point ``p`` is right of the line through the anchor ``a`` rotated
    counterclockwise by an infinitesimal angle past ``d`` exactly when
    ``key(p) < key(a)``: when its offset ``d.offset`` is lower than the
    anchor's, or, on the line at ``d`` itself, when it lies ahead of the
    anchor (a larger dot product with ``d``).  The key is ``(offset, -ahead)``,
    so the test is one tuple comparison in C; distinct points have distinct
    keys, and the number of points right of an anchor is its rank among the
    keys.  One key per point, in the order given.
    """
    return [(d.offset(p.x, p.y), -(d.dx * p.x + d.dy * p.y)) for p in points]


@dataclass(frozen=True)
class Instance:
    """An immutable validated instance: red and blue points in general position."""

    points: tuple[LabeledPoint, ...]
    r: int
    b: int
    delta: int

    @property
    def n(self) -> int:
        return len(self.points)

    def point(self, pid: int) -> LabeledPoint:
        p = self.points[pid]
        if p.id != pid:
            raise KeyError(pid)
        return p

    @cached_property
    def red_ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.points if p.color is Color.RED)

    @cached_property
    def blue_ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.points if p.color is Color.BLUE)

    def ids_of(self, color: Color) -> tuple[int, ...]:
        return self.red_ids if color is Color.RED else self.blue_ids

    # The rows: one coordinate or weight per point, by id, so the hot loops
    # index plain tuples instead of reading a LabeledPoint's attributes and
    # its color's weight.  Cached on the instance, like the fence table.

    @cached_property
    def xs(self) -> tuple[Coord, ...]:
        return tuple(p.x for p in self.points)

    @cached_property
    def ys(self) -> tuple[Coord, ...]:
        return tuple(p.y for p in self.points)

    @cached_property
    def ws(self) -> tuple[int, ...]:
        return tuple(p.color.weight for p in self.points)

    def fence_rows(self, pid: int) -> list[tuple[int, int, bool]]:
        """One row per other point, in the angular order about the point ``pid``.

        No two points share an abscissa, so no fence is vertical, and the
        two fences of another point lie on the line through it and ``pid``.
        The row ``(prefix, other, right)`` carries that line's slope prefix
        (``slopes``) and whether the other point lies right of ``pid``
        (``x > qx``).  The rows are sorted once, in O(n log n), by slope,
        which is the ``direction_key`` order of a half turn: the half-1
        fences (``fences``), from just past vertical to just before its
        antipode, where each line through ``pid`` and another point is
        crossed exactly once, toward the other point exactly when it is not
        ``right``.  The prefix orders the rows; only a run of rows whose
        prefixes tie, which random instances almost never have, is put in
        exact order by a ``Ratio`` of each row's ``slope``.  No row is
        reduced.  Built anew on each call and kept nowhere: a caller that
        reads a point's order once (the sweep enumerator) leaves nothing on
        the instance.
        """
        xs, ys = self.xs, self.ys
        qx, qy = xs[pid], ys[pid]
        oxs = xs[:pid] + xs[pid + 1:]
        prefixes = slopes(qx, qy, zip(oxs, ys[:pid] + ys[pid + 1:]))
        rows = sorted(zip(prefixes, chain(range(pid), range(pid + 1, len(xs))),
                          [x > qx for x in oxs]))
        if len(set(prefixes)) == len(rows):
            return rows

        def exact(row):
            return Ratio(*slope(xs[row[1]] - qx, ys[row[1]] - qy))

        ordered = []
        for _, run in groupby(rows, key=itemgetter(0)):
            run = list(run)
            if len(run) > 1:
                run.sort(key=exact)
            ordered += run
        return ordered

    @cached_property
    def _fence_table(self) -> dict[int, tuple[tuple[tuple, Direction, int, bool], ...]]:
        return {}

    def fences(self, pid: int) -> tuple[tuple[tuple, Direction, int, bool], ...]:
        """Angular order of the point ``pid``: where a line turning about it changes.

        One ``(key, direction, other_id, head)`` entry for the direction
        toward (``head``) and the direction away from every other point,
        sorted by ``key = direction_key(VERTICAL, direction)``: the cyclic
        order from just past vertical, counterclockwise, vertical last.
        General position makes the 2(n-1) keys distinct.  Built on first use
        and kept on the instance, so the table lives exactly as long as the
        instance does: the package keeps no state between instances.  The
        table fills one point at a time, on that point's first use: the
        rotations and sliding profiles, which come back to a pivot many
        times, build only the pivots they visit.

        Built from ``fence_rows``, in its order (by slope prefix, exact on a
        tie), and the only place that reduces a row:
        the vector to the other point, divided by its ``gcd`` (``slope``
        when a Fraction is in it), is the slope ``num/den`` with ``den > 0``
        and gives the primitive direction ``(-den, -num)``, key ``(1,
        prefix, Ratio(num, den))``, and ``(den, num)``, key ``(3, prefix,
        Ratio(num, den))``; the head is the one that points toward the other
        point.  So the rows, in order, give the half-1 entries, then the
        half-3 entries.
        """
        table = self._fence_table
        if pid not in table:
            xs, ys = self.xs, self.ys
            qx, qy = xs[pid], ys[pid]
            heads, tails = [], []
            for prefix, other, right in self.fence_rows(pid):
                dx, dy = xs[other] - qx, ys[other] - qy
                try:
                    g = gcd(dx, dy) if right else -gcd(dx, dy)
                    num, den = dy // g, dx // g
                except TypeError:  # a Fraction difference, which ``gcd`` rejects
                    num, den = slope(dx, dy)
                ratio = Ratio(num, den)
                heads.append(((1, prefix, ratio), _new(Direction, (-den, -num)), other, not right))
                tails.append(((3, prefix, ratio), _new(Direction, (den, num)), other, right))
            table[pid] = tuple(heads + tails)
        return table[pid]


FENCE_KEY = itemgetter(0)  # the sort and bisection key of an ``Instance.fences`` entry


def fences_within(entries: Sequence[tuple], k_from: tuple, k_to: tuple) -> Sequence[tuple]:
    """The entries strictly inside the counterclockwise turn from key k_from to k_to.

    ``entries`` is sorted by its first field, a ``direction_key(VERTICAL, ·)``
    key, as the lists of ``Instance.fences`` are; equal end keys mean the
    full turn.  Two bisections find the entries, in the turn's order, so no
    entry's key is compared one by one.
    """
    lo = bisect_right(entries, k_from, key=FENCE_KEY)
    hi = bisect_left(entries, k_to, key=FENCE_KEY)
    # a turn that passes vertical, where the keys restart, is two slices
    return entries[lo:hi] if k_from < k_to else entries[lo:] + entries[:hi]


def build_points(raw: Iterable[tuple[Coord, Coord, Color | str]]) -> list[LabeledPoint]:
    """Build LabeledPoints from (x, y, color) triples, ids by position."""
    pts = []
    for i, (x, y, c) in enumerate(raw):
        color = c if isinstance(c, Color) else Color(c)
        pts.append(LabeledPoint(i, _as_exact(x), _as_exact(y), color))
    return pts


def validate(points: Sequence[LabeledPoint]) -> Instance:
    """Check all instance invariants and derive r, b and delta.

    Raises CollinearTriple, DuplicateAbscissa or ColorImbalance naming the
    offending points; ids must equal list positions and every coordinate
    must be an int or a Fraction (``build_points`` coerces strings), else
    ValidationError.  General position is checked in id order: two later
    points lie on one line with a point exactly when its slopes to them are
    equal (``slope`` is sign-free), so every triple is seen from its lowest
    id.  The distinct slope prefixes of each row (``slopes``) are counted in
    a set, in O(n^2) expected time: when none tie, the slopes are distinct.
    Only a row whose prefixes tie is grouped by exact ``slope``, in the
    order of the later points; a collinear triple names the
    lexicographically first one, and a tie of distinct slopes passes.
    """
    if not points:
        raise ValidationError("instance must contain at least one point")
    for i, p in enumerate(points):
        if p.id != i:
            raise ValidationError(f"point at position {i} carries id {p.id}")
        for v in (p.x, p.y):
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValidationError(
                    f"point {i} has a coordinate of type {type(v).__name__}, not int or Fraction"
                )
    n = len(points)
    by_x: dict[Coord, int] = {}
    for p in points:
        if p.x in by_x:
            raise DuplicateAbscissa((by_x[p.x], p.id))
        by_x[p.x] = p.id
    coords = [(p.x, p.y) for p in points]
    for i, (x, y) in enumerate(coords):
        later = coords[i + 1:]
        row = slopes(x, y, later)
        if len(set(row)) < len(row):
            groups: dict[tuple[int, int], list[int]] = {}
            for j, (lx, ly) in enumerate(later, i + 1):
                groups.setdefault(slope(lx - x, ly - y), []).append(j)
            for g in groups.values():
                if len(g) > 1:
                    raise CollinearTriple((i, g[0], g[1]))
    r = sum(1 for p in points if p.color is Color.RED)
    b = n - r
    if b < r or (b - r) % 2 != 0:
        raise ColorImbalance(r, b)
    return Instance(tuple(points), r, b, (b - r) // 2)


def halfplane_weight(line: DirectedLine, inst: Instance) -> int:
    """Total weight of the points strictly right of the line.

    A full, exact recount by the package's one side test, ``Direction.offset``:
    a point is right of the line when its offset against the line's
    direction is below the anchor's, so each point costs one integer
    comparison.  The loop reads the rows (``Instance.xs``, ``ys``, ``ws``)
    and computes each offset inline, with no call per point.  The left side
    is the same pass with the comparison to the anchor's offset swapped:
    the points whose offset is above it.
    """
    dx, dy = d = line.direction
    o = d.offset(line.ax, line.ay)
    return sum(w for x, y, w in zip(inst.xs, inst.ys, inst.ws) if dx * y - dy * x < o)


def is_balanced(id_a: int, id_b: int, inst: Instance) -> bool:
    """True when the line through the pair leaves weight delta on each side.

    One pass of integer cross products relative to point ``id_a``, sharing
    nothing with ``Direction`` or ``Instance.fences``: the recount that stays
    independent of the construction.  Symmetric in the two ids.
    """
    a, b = inst.point(id_a), inst.point(id_b)
    if a.color is b.color:
        raise SameColorPair(f"points {id_a} and {id_b} have the same color")
    dx, dy = b.x - a.x, b.y - a.y
    right = left = 0
    for p in inst.points:
        c = dx * (p.y - a.y) - dy * (p.x - a.x)
        if c < 0:
            right += p.weight
        elif c > 0:
            left += p.weight
    return right == left == inst.delta


def instance_to_json(inst: Instance) -> str:
    """Serialize to the canonical instance JSON (lossless rationals).

    Each coordinate is written as ``str(v)``, which for an int or a Fraction
    is ``str(Fraction(v))``: an integer as its digits, a rational as ``p/q``.
    """
    pts = [
        {"x": str(p.x), "y": str(p.y), "color": p.color.value}
        for p in inst.points
    ]
    return json.dumps({"points": pts}, separators=(",", ":")) + "\n"


def instance_from_json(text: str | bytes) -> Instance:
    """Parse and validate the instance JSON format.

    Every malformed document, whatever part of it is wrong, raises
    ValidationError.
    """
    try:
        data = json.loads(text)
        points = build_points((p["x"], p["y"], p["color"]) for p in data["points"])
    except (ValueError, TypeError, KeyError, ZeroDivisionError, RecursionError) as exc:
        raise ValidationError(f"malformed instance document: {exc!r}") from exc
    return validate(points)


VERTICAL = Direction(0, 1)

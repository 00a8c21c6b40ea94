"""Exact rational plane geometry: points, lines, segments, and the predicates
everything else is built on.

All coordinates and slopes are ``fractions.Fraction`` values, so every
predicate here is decided exactly; nothing rounds.  Points are integer
homogeneous triples (X, Y, W) and lines integer triples (A, B, C), and two
operations on triples decide everything: ``side``, the dot product, is a
line's value at a point, and ``cross`` joins two points into their line
and meets two lines in their point.  Orientation is the side of a point on
the join of two others; a segment keeps the triple of its line, so its
predicates read one side value per point.  Angles are never stored
numerically: an angle gap is represented by its negated cotangent, a
rational function of the two slopes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import (Iterable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

ScalarLike = Union[Fraction, int, str]


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int / 'p/q' string / Fraction into an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in the exact kernel; "
                        "use Fraction or a 'p/q' string")
    return Fraction(value)


class PostconditionError(RuntimeError):
    """A result failed the exact check its producer runs on it before
    returning it; unlike an ``assert``, ``python -O`` keeps the check."""


class ParallelLines(ValueError):
    """Raised when intersecting two lines of equal slope."""


class DegenerateContact(ValueError):
    """Raised by winding_number when the polyline touches the ray
    non-transversally (a vertex on the ray, or a crossing exactly through
    the ray origin)."""


@dataclass(frozen=True)
class Point:
    """The point (x, y).  Its exact tests read ``homogeneous``, the integer
    coordinates (X, Y, W) with W > 0 of the point (X/W, Y/W), kept at
    construction, as ``Line.homogeneous`` is, outside the compared
    fields."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        xn, xd = self.x.numerator, self.x.denominator
        yn, yd = self.y.numerator, self.y.denominator
        object.__setattr__(self, "homogeneous", (xn * yd, yn * xd, xd * yd))


def point(x: ScalarLike, y: ScalarLike) -> Point:
    return Point(scalar(x), scalar(y))


@dataclass(frozen=True)
class Line:
    """A non-vertical line y = slope*x - dual_offset, and nothing else: a
    line set names its lines by their places in it.  With the *negated*
    y-intercept, point-line duality is coordinate copying: (slope,
    dual_offset) <-> the dual point.  Its exact tests read the integer
    triple ``homogeneous``, the form of every other line here: the
    integers (A, B, C) = (p*s, -q*s, -r*q) of y = (p/q)*x - r/s times q*s,
    so A*X + B*Y + C*W at a point (X, Y, W), W > 0, is 0 on the line and,
    as B < 0, positive below it.  It is kept once, at construction,
    outside the compared fields."""

    slope: Fraction
    dual_offset: Fraction

    def __post_init__(self):
        p, q = self.slope.numerator, self.slope.denominator
        r, s = self.dual_offset.numerator, self.dual_offset.denominator
        object.__setattr__(self, "homogeneous", (p * s, -q * s, -r * q))

    def contains(self, p: Point) -> bool:
        return side(self.homogeneous, p.homogeneous) == 0

    def point_at(self, x: Fraction) -> Point:
        return Point(x, self.slope * x - self.dual_offset)


@dataclass(frozen=True)
class Segment:
    """The closed segment from p to q.  Its predicates read ``line``, the
    primitive integer triple ``line_through`` p and q, directed from p to
    q: ``side(line, r.homogeneous)`` has the sign of
    ``orientation(p, q, r)``.  It is kept at construction, as
    ``Point.homogeneous`` is, outside the compared fields."""

    p: Point
    q: Point

    def __post_init__(self):
        # the triples of reduced coordinates are equal iff the points are
        p, q = self.p.homogeneous, self.q.homogeneous
        if p == q:
            raise ValueError("degenerate segment: endpoints coincide")
        object.__setattr__(self, "line", line_through(p, q))

    def at(self, t: Fraction) -> Point:
        """The point p + t*(q - p): p at t=0, q at t=1."""
        return Point(self.p.x + t * (self.q.x - self.p.x),
                     self.p.y + t * (self.q.y - self.p.y))


@dataclass(frozen=True)
class Ray:
    origin: Point
    dx: Fraction
    dy: Fraction

    def __post_init__(self):
        if self.dx == 0 and self.dy == 0:
            raise ValueError("ray needs a nonzero direction")


def cross(u: Tuple, v: Tuple) -> Tuple:
    """The cross product u x v of two triples.  Of two homogeneous points
    it is the line through both, directed from u to v; of two line triples
    it is their common point, W = 0 for parallel lines."""
    (x1, y1, w1), (x2, y2, w2) = u, v
    return y1 * w2 - w1 * y2, w1 * x2 - x1 * w2, x1 * y2 - y1 * x2


def line_through(p: Tuple[int, int, int], q: Tuple[int, int, int]
                 ) -> Tuple[int, int, int]:
    """The directed line from p to q, homogeneous integer points (X, Y, W)
    with W >= 0 (W = 0 is a direction), as ``cross(p, q)`` divided by its
    gcd, which is positive: a primitive triple (A, B, C) such that a point
    r = (X, Y, W) with W > 0 lies left of the line iff ``side(line, r)``,
    the determinant of the rows p, q, r over that gcd, is > 0."""
    a, b, c = cross(p, q)
    g = math.gcd(a, b, c)
    return a // g, b // g, c // g


def side(l: Tuple, p: Tuple):
    """The value A*X + B*Y + C*W of the line triple l = (A, B, C) at the
    homogeneous point p = (X, Y, W): 0 on the line, and for W > 0 of the
    sign of the side of it p lies on; exact on integers, also on floats."""
    (A, B, C), (X, Y, W) = l, p
    return A * X + B * Y + C * W


def at_infinity(dx: Fraction, dy: Fraction) -> Tuple[int, int, int]:
    """The point at infinity in the direction (dx, dy), as an integer
    homogeneous triple (X, Y, 0) with (X, Y) a positive multiple of it."""
    return (dx.numerator * dy.denominator, dy.numerator * dx.denominator, 0)


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of (q-p) x (r-p): +1 left turn, 0 collinear, -1 right turn.
    It is read as the side of r on the line p x q, the determinant of the
    homogeneous rows p, q, r, which is (q-p) x (r-p) times W_p*W_q*W_r > 0."""
    d = side(cross(p.homogeneous, q.homogeneous), r.homogeneous)
    return (d > 0) - (d < 0)


def on_segment(s: Segment, p: Point) -> bool:
    """Whether p lies on the closed segment s: on its line ``s.line``, then
    inside its bounding box."""
    return (side(s.line, p.homogeneous) == 0
            and min(s.p.x, s.q.x) <= p.x <= max(s.p.x, s.q.x)
            and min(s.p.y, s.q.y) <= p.y <= max(s.p.y, s.q.y))


def clip_to_halfplanes(sides: Iterable[Tuple], p: Tuple, q: Tuple
                       ) -> Optional[Tuple]:
    """Clip the segment p + t*(q - p), 0 <= t <= 1, of homogeneous points
    (X, Y, W) with W > 0 to the half-planes A*x + B*y + C >= 0 of the
    sides (A, B, C), as Cyrus and Beck do.  Returns (lo, hi, k_lo, k_hi):
    the clipped interval as pairs (n, d), d > 0, for t = n/d (equal in
    value when it is one point), and the positions in sides of the
    half-planes that set its bounds, None for an end of the segment; or
    None when it is empty.  Parameters are compared by cross-multiplying,
    never divided, so the clip is exact on the integer triples it is given;
    the unstretch screen runs the same steps on float arrays."""
    wp, wq = p[2], q[2]
    n_lo, d_lo, n_hi, d_hi = 0, 1, 1, 1
    k_lo = k_hi = None
    for k, l in enumerate(sides):
        # the side's values at p and q, both times W_p * W_q
        a = side(l, p) * wq
        b = side(l, q) * wp
        if a < 0 and b < 0:
            return None
        if a < b:         # entering the half-plane at t = -a/(b - a)
            if -a * d_lo > n_lo * (b - a):
                n_lo, d_lo, k_lo = -a, b - a, k
        elif a > b:       # leaving it at t = a/(a - b)
            if a * d_hi < n_hi * (a - b):
                n_hi, d_hi, k_hi = a, a - b, k
        else:
            continue
        if n_lo * d_hi > n_hi * d_lo:
            return None
    return (n_lo, d_lo), (n_hi, d_hi), k_lo, k_hi


# sort key of a parameter t = n/d given as its integer pair (n, d), d > 0:
# the last coordinate of cross((n, d, 0), (n', d', 0)) is n*d' - d*n', of
# the sign of t - t'
by_parameter = cmp_to_key(lambda u, v: cross((*u, 0), (*v, 0))[2])


def line_intersection(l1: Line, l2: Line) -> Point:
    """The one common point of two lines, exactly: the cross product
    (X, Y, W) of their triples ``Line.homogeneous`` is (X/W, Y/W).  W is
    s1*s2*(p2*q1 - p1*q2), 0 exactly for equal slopes p/q, identical lines
    included, which raise ParallelLines."""
    X, Y, W = cross(l1.homogeneous, l2.homogeneous)
    if W == 0:
        raise ParallelLines(f"two lines have equal slope {l1.slope}")
    return Point(Fraction(X, W), Fraction(Y, W))


class SegmentRelation(enum.Enum):
    DISJOINT = "disjoint"
    PROPER_CROSS = "proper_cross"
    TOUCH_ENDPOINT_ENDPOINT = "touch_endpoint_endpoint"
    TOUCH_ENDPOINT_INTERIOR = "touch_endpoint_interior"
    OVERLAP = "overlap"


def segments_intersect(s1: Segment, s2: Segment) -> SegmentRelation:
    """Exact classification of the intersection of two closed segments.

    Collinear segments meet not at all, in a piece of positive length
    (OVERLAP), or in one point, which is then an endpoint of both: a
    non-degenerate interval cannot meet another only at one of its interior
    points.  So the endpoints of each segment that lie on the other decide
    the collinear case, and it never yields TOUCH_ENDPOINT_INTERIOR.

    The side values of each segment's ends on the other's ``Segment.line``
    carry the orientation signs; only their signs are read."""
    l1, l2 = s1.line, s2.line
    o1 = side(l1, s2.p.homogeneous)
    o2 = side(l1, s2.q.homogeneous)
    o3 = side(l2, s1.p.homogeneous)
    o4 = side(l2, s1.q.homogeneous)

    if o1 == 0 and o2 == 0:
        shared = {p for p in (s2.p, s2.q) if on_segment(s1, p)}
        shared |= {p for p in (s1.p, s1.q) if on_segment(s2, p)}
        if len(shared) > 1:
            return SegmentRelation.OVERLAP
        if shared:
            return SegmentRelation.TOUCH_ENDPOINT_ENDPOINT
        return SegmentRelation.DISJOINT

    # the supporting lines meet in one point X (or are parallel, and then
    # one segment lies strictly on one side of the other's line); an
    # endpoint with a zero sign is X, and X lies on a closed segment exactly
    # when its two ends are not strictly on one side of the other's line
    if o1 * o2 > 0 or o3 * o4 > 0:
        return SegmentRelation.DISJOINT
    if 0 not in (o1, o2, o3, o4):
        return SegmentRelation.PROPER_CROSS
    if 0 in (o1, o2) and 0 in (o3, o4):
        return SegmentRelation.TOUCH_ENDPOINT_ENDPOINT
    return SegmentRelation.TOUCH_ENDPOINT_INTERIOR


def ratio_float(numerator: int, denominator: int) -> float:
    """numerator / denominator, denominator > 0, as a float that ranks
    with the exact quotient: one correctly rounded division, the float
    that float(Fraction(numerator, denominator)) gives, so a < b gives
    ratio_float of a <= that of b; beyond float range, +-inf."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def convex_hull(points: Sequence[Point]) -> List[Point]:
    """Convex hull in counter-clockwise order from the smallest point by
    (x, y), collinear interior points removed.  Degenerate inputs yield 1
    or 2 points."""
    if not points:
        raise ValueError("convex_hull of empty set")
    # one point per homogeneous triple, canonical as coordinates reduce,
    # sorted by (x, y): by the float of x first, so that the Fractions are
    # compared only where two floats tie
    pts = sorted({p.homogeneous: p for p in points}.values(),
                 key=lambda p: (ratio_float(p.x.numerator, p.x.denominator),
                                p.x, p.y))
    if len(pts) <= 2:
        return pts

    def half(seq: Iterable[Point]) -> List[Point]:
        out: List[Point] = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # everything collinear
        return [pts[0], pts[-1]]
    return hull


def winding_number(polyline: Sequence[Point], r: Ray) -> int:
    """Signed transversal crossings of the oriented polyline with the ray:
    arrivals from the left (looking along the ray) count +1, arrivals from
    the right count -1."""
    if len(polyline) < 2:
        raise ValueError("polyline needs at least 2 points")
    o = r.origin.homogeneous
    ray = line_through(o, at_infinity(r.dx, r.dy))
    # the line through the origin across the ray, positive exactly behind it
    behind = line_through(o, at_infinity(-r.dy, r.dx))
    # each vertex's side value against the ray's line, times W > 0
    values = [side(ray, v.homogeneous) for v in polyline]
    for v, s in zip(polyline, values):
        if s == 0 and side(behind, v.homogeneous) <= 0:
            raise DegenerateContact(f"polyline vertex {v} lies on the ray")
    total = 0
    for p, q, sp, sq in zip(polyline, polyline[1:], values, values[1:]):
        if sp == 0 or sq == 0:
            # a vertex on the ray's line, so behind the origin: the segment
            # touches the line or runs along it off the ray
            continue
        if (sp > 0) == (sq > 0):
            continue
        # transversal crossing X of the supporting line: (q-p) x (origin-p)
        # is X's signed position along the ray times a rise of sq's sign, up
        # to a positive factor, so its sign times sq's places X on the ray
        ahead = orientation(p, q, r.origin) * (1 if sq > 0 else -1)
        if ahead < 0:
            continue
        if ahead == 0:
            raise DegenerateContact("polyline crosses exactly through the "
                                    "ray origin")
        total += 1 if sp > 0 else -1
    return total


class Ratio(NamedTuple):
    """The rational numerator/denominator, unreduced, with denominator > 0;
    it reads like a Fraction's ``numerator`` and ``denominator``.  Built
    from columns, it holds one column of each, pair by pair."""

    numerator: int
    denominator: int


def columns(triples: Iterable[Tuple[int, int, int]]) -> np.ndarray:
    """The triples as the three rows of a numpy object array, so that
    ``cols[:, ids]`` unpacks into the three coordinate columns of the
    triples at ``ids``.  ``cross`` and ``side`` take such columns as they
    take single triples, element by element, and their entries stay
    Python ints, exact at any size."""
    return np.array(list(triples), dtype=object).T


def gap_ratio(u: Tuple[int, int, int], v: Tuple[int, int, int]) -> Ratio:
    """The value of :func:`angle_gap` from the lines' directions, their
    points at infinity u = ``at_infinity(1, p1/q1)`` = (q1, p1, 0) and v:
    -side(u, v) / |W of cross(u, v)| = -(q1*q2 + p1*p2) / |q1*p2 - p1*q2|,
    unreduced (no gcd is taken) and the same in either argument order.
    On the columns of :func:`columns` it gives a column of each, pair by
    pair.  Raises ParallelLines on equal slopes."""
    d = cross(u, v)[2]
    if not (d.all() if isinstance(d, np.ndarray) else d):
        raise ParallelLines("angle gap of parallel lines")
    return Ratio(-side(u, v), abs(d))


def angle_gap(l1: Line, l2: Line) -> Fraction:
    """-cot of the angle gap a(l_hi) - a(l_lo) in (0, pi) of two non-parallel
    lines, -(1 + s_lo*s_hi)/(s_hi - s_lo): cot is finite and strictly
    decreasing on (0, pi), so the values order and tie as the gaps do.  The
    sign reads the gap against a right angle: < 0 acute, 0 right, > 0
    obtuse.  It is :func:`gap_ratio` of the two lines' directions reduced
    to a Fraction; ParallelLines on equal slopes."""
    return Fraction(*gap_ratio(at_infinity(1, l1.slope),
                               at_infinity(1, l2.slope)))


def compare_angle_gap(pair1: Tuple[Line, Line],
                      pair2: Tuple[Line, Line]) -> int:
    """-1 / 0 / +1 as the first angle gap is smaller / equal / larger: the
    two :func:`gap_ratio` values cross-multiplied, with no Fraction."""
    (n1, d1), (n2, d2) = (gap_ratio(at_infinity(1, l1.slope),
                                    at_infinity(1, l2.slope))
                          for l1, l2 in (pair1, pair2))
    g1, g2 = n1 * d2, n2 * d1
    return (g1 > g2) - (g1 < g2)

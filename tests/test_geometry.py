"""Exact kernel tests: predicates, hulls, winding numbers, angle gaps."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treelines.geometry import (
    DegenerateContact,
    Line,
    ParallelLines,
    Point,
    Ratio,
    Ray,
    Segment,
    SegmentRelation,
    angle_gap,
    at_infinity,
    clip_to_halfplanes,
    columns,
    compare_angle_gap,
    convex_hull,
    cross,
    gap_ratio,
    line_intersection,
    on_segment,
    orientation,
    point,
    ratio_float,
    scalar,
    segments_intersect,
    side,
    winding_number,
)

from conftest import dualize_line, dualize_point

FUZZ = settings(max_examples=200, database=None, deadline=None,
                derandomize=True)

rationals = st.fractions(min_value=-50, max_value=50,
                         max_denominator=97)
points = st.builds(Point, rationals, rationals)


def test_scalar_rejects_floats():
    with pytest.raises(TypeError):
        scalar(0.5)
    assert scalar("7/3") == Fraction(7, 3)
    assert scalar(4) == Fraction(4)


def test_orientation_examples():
    assert orientation(point(0, 0), point(1, 0), point(0, 1)) == 1
    assert orientation(point(0, 0), point(1, 1), point(2, 2)) == 0
    assert orientation(point(0, 0), point(0, 1), point(1, 1)) == -1


@given(points, points, points)
def test_orientation_antisymmetry(p, q, r):
    assert orientation(p, q, r) == -orientation(p, r, q)


@given(points, points, points, rationals, rationals)
def test_orientation_translation_invariant(p, q, r, dx, dy):
    p2, q2, r2 = (Point(v.x + dx, v.y + dy) for v in (p, q, r))
    assert orientation(p2, q2, r2) == orientation(p, q, r)


def test_line_intersection_examples():
    assert line_intersection(Line(scalar(1), scalar(0)),
                             Line(scalar(-1), scalar(0))) == point(0, 0)
    assert line_intersection(Line(scalar(2), scalar(3)),
                             Line(scalar(1), scalar(1))) == point(2, 1)
    p = line_intersection(Line(Fraction(1, 3), scalar(0)),
                          Line(Fraction(5, 2), scalar(1)))
    assert p == Point(Fraction(6, 13), Fraction(2, 13))


# numerators up to about 10**40, zero, and denominators other than 1
wide_rationals = st.one_of(
    st.just(Fraction(0)), rationals,
    st.builds(Fraction, st.integers(-10**40, 10**40),
              st.integers(1, 10**40)))


@given(wide_rationals, wide_rationals, wide_rationals, wide_rationals,
       st.booleans())
def test_gap_and_crossing_match_the_fraction_formulas(s1, b1, s2, b2,
                                                      parallel):
    if parallel:
        s2 = s1
    l1, l2 = Line(s1, b1, 1), Line(s2, b2, 2)
    # gap_ratio takes the lines' directions, their points at infinity
    d1, d2 = at_infinity(1, s1), at_infinity(1, s2)
    if s1 == s2:
        for f, a, b in ((angle_gap, l1, l2), (gap_ratio, d1, d2),
                        (line_intersection, l1, l2)):
            for pair in ((a, b), (b, a)):
                with pytest.raises(ParallelLines):
                    f(*pair)
        return
    s_lo, s_hi = sorted((s1, s2))
    gap = -(1 + s_lo * s_hi) / (s_hi - s_lo)
    for pair, dirs in (((l1, l2), (d1, d2)), ((l2, l1), (d2, d1))):
        assert angle_gap(*pair) == gap
        r = gap_ratio(*dirs)
        assert isinstance(r, Ratio) and r.denominator > 0
        assert Fraction(r.numerator, r.denominator) == gap
    x = (b1 - b2) / (s1 - s2)
    assert line_intersection(l1, l2) == Point(x, s1 * x - b1)
    assert line_intersection(l2, l1) == Point(x, s1 * x - b1)


def test_gap_ratio_on_columns_is_the_gap_of_each_pair(rng):
    # columns of huge and of small directions give, pair by pair, the
    # Ratio of the single pair, and one parallel pair raises
    for scale in (1, 2**60):
        slopes = {Fraction(int(p) * scale + int(e), int(q) * scale + int(f))
                  for p, q, e, f in zip(rng.integers(-50, 50, 12),
                                        rng.integers(1, 50, 12),
                                        *rng.integers(0, scale, (2, 12)))}
        dirs = [at_infinity(1, s) for s in slopes]
        lo, hi = np.triu_indices(len(dirs), 1)
        num, den = gap_ratio(columns(dirs)[:, lo], columns(dirs)[:, hi])
        assert list(zip(num, den)) == [gap_ratio(dirs[i], dirs[j])
                                       for i, j in zip(lo, hi)]
        with pytest.raises(ParallelLines):
            gap_ratio(columns(dirs), columns(dirs[:1] + dirs[:-1]))


def test_line_intersection_parallel():
    with pytest.raises(ParallelLines):
        line_intersection(Line(scalar(1), scalar(0)),
                          Line(scalar(1), scalar(5)))


def test_line_intersection_of_identical_lines_raises_in_both_orders():
    # the cross product of two equal triples is (0, 0, 0)
    l1 = Line(Fraction(3, 7), Fraction(-5, 2), 1)
    l2 = Line(Fraction(3, 7), Fraction(-5, 2), 2)
    for a, b in ((l1, l2), (l2, l1)):
        with pytest.raises(ParallelLines,
                           match=f"lines {a.id} and {b.id} have equal slope"):
            line_intersection(a, b)


@given(wide_rationals, wide_rationals, wide_rationals, wide_rationals)
def test_line_triple_is_zero_on_the_line_and_positive_below(s, b, x, y):
    ln = Line(s, b)
    A, B, C = ln.homogeneous
    assert B < 0

    def value(p: Point) -> int:
        X, Y, W = p.homogeneous
        return A * X + B * Y + C * W

    on = ln.point_at(x)
    assert value(on) == 0 and ln.contains(on)
    off = Point(x, y)
    below = s * x - b - y
    assert (value(off) > 0) - (value(off) < 0) == (below > 0) - (below < 0)
    assert ln.contains(off) == (below == 0)


def test_duality_examples():
    assert dualize_line(Line(scalar(2), scalar(3))) == point(2, 3)
    assert dualize_line(Line(scalar(0), scalar(0))) == point(0, 0)


@given(rationals, rationals)
def test_duality_round_trip(a, b):
    l = Line(a, b, id=7)
    assert dualize_point(dualize_line(l), id=7) == l
    p = Point(a, b)
    assert dualize_line(dualize_point(p)) == p


def test_segments_intersect_examples():
    x1 = Segment(point(0, 0), point(2, 2))
    x2 = Segment(point(0, 2), point(2, 0))
    assert segments_intersect(x1, x2) == SegmentRelation.PROPER_CROSS
    t1 = Segment(point(0, 0), point(1, 0))
    t2 = Segment(point(1, 0), point(2, 1))
    assert segments_intersect(t1, t2) == \
        SegmentRelation.TOUCH_ENDPOINT_ENDPOINT
    o1 = Segment(point(0, 0), point(2, 0))
    o2 = Segment(point(1, 0), point(3, 0))
    assert segments_intersect(o1, o2) == SegmentRelation.OVERLAP
    assert segments_intersect(
        Segment(point(0, 0), point(1, 0)),
        Segment(point(0, 1), point(1, 1))) == SegmentRelation.DISJOINT
    assert segments_intersect(
        Segment(point(0, 0), point(2, 0)),
        Segment(point(1, 0), point(1, 5))) == \
        SegmentRelation.TOUCH_ENDPOINT_INTERIOR


def test_segment_rejects_equal_ends_of_unequal_inputs():
    # Fraction(2, 4) is Fraction(1, 2), and the int 3 is Fraction(6, 2)
    half = Point(Fraction(1, 2), 3)
    for other in (Point(Fraction(2, 4), Fraction(6, 2)),
                  point("2/4", "3"), Point(Fraction(1, 2), Fraction(3))):
        with pytest.raises(ValueError):
            Segment(half, other)
        with pytest.raises(ValueError):
            Segment(other, half)
    # two ends that share one coordinate make a segment
    for other in (point("1/2", "-3"), point("-1/2", "3")):
        s = Segment(half, other)
        assert s.p is half and s.q is other


def _brute_segment_relation(s1: Segment, s2: Segment) -> SegmentRelation:
    """Parametric oracle: solve p1 + t(q1-p1) = p2 + u(q2-p2) exactly."""
    d1 = (s1.q.x - s1.p.x, s1.q.y - s1.p.y)
    d2 = (s2.q.x - s2.p.x, s2.q.y - s2.p.y)
    det = d1[0] * d2[1] - d1[1] * d2[0]
    rx, ry = s2.p.x - s1.p.x, s2.p.y - s1.p.y
    if det != 0:
        t = (rx * d2[1] - ry * d2[0]) / det
        u = (rx * d1[1] - ry * d1[0]) / det
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return SegmentRelation.DISJOINT
        t_end = t in (0, 1)
        u_end = u in (0, 1)
        if t_end and u_end:
            return SegmentRelation.TOUCH_ENDPOINT_ENDPOINT
        if t_end or u_end:
            return SegmentRelation.TOUCH_ENDPOINT_INTERIOR
        return SegmentRelation.PROPER_CROSS
    # parallel; check collinearity then overlap the 1-d intervals
    if rx * d1[1] - ry * d1[0] != 0:
        return SegmentRelation.DISJOINT
    def coord(p):
        return p.x if d1[0] != 0 else p.y
    a = sorted([coord(s1.p), coord(s1.q)])
    b = sorted([coord(s2.p), coord(s2.q)])
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo > hi:
        return SegmentRelation.DISJOINT
    if lo < hi:
        return SegmentRelation.OVERLAP
    ends1 = {s1.p, s1.q}
    ends2 = {s2.p, s2.q}
    contact = (ends1 | ends2).intersection(ends1).intersection(ends2)
    if contact:
        return SegmentRelation.TOUCH_ENDPOINT_ENDPOINT
    return SegmentRelation.TOUCH_ENDPOINT_INTERIOR


def test_segments_against_brute_force(rng):
    for _ in range(10_000):
        c = [Fraction(int(v), 8) for v in rng.integers(-12, 12, size=8)]
        try:
            s1 = Segment(Point(c[0], c[1]), Point(c[2], c[3]))
            s2 = Segment(Point(c[4], c[5]), Point(c[6], c[7]))
        except ValueError:
            continue
        got = segments_intersect(s1, s2)
        want = _brute_segment_relation(s1, s2)
        assert got == want, (s1, s2)
        assert segments_intersect(s2, s1) == got
    # the draw above almost never makes collinear pairs; endpoints on the
    # 4 x 4 integer grid reach every collinear relation and both touches
    # between segments whose lines cross
    reached = set()
    for _ in range(5_000):
        c = [Fraction(int(v)) for v in rng.integers(0, 4, size=8)]
        try:
            s1 = Segment(Point(c[0], c[1]), Point(c[2], c[3]))
            s2 = Segment(Point(c[4], c[5]), Point(c[6], c[7]))
        except ValueError:
            continue
        want = _brute_segment_relation(s1, s2)
        assert segments_intersect(s1, s2) == want, (s1, s2)
        assert segments_intersect(s2, s1) == want, (s2, s1)
        collinear = (_fraction_orientation(s1.p, s1.q, s2.p) == 0
                     and _fraction_orientation(s1.p, s1.q, s2.q) == 0)
        reached.add((collinear, want))
    assert {(True, SegmentRelation.DISJOINT),
            (True, SegmentRelation.TOUCH_ENDPOINT_ENDPOINT),
            (True, SegmentRelation.OVERLAP),
            (False, SegmentRelation.TOUCH_ENDPOINT_ENDPOINT),
            (False, SegmentRelation.TOUCH_ENDPOINT_INTERIOR)} <= reached


@given(points, points,
       st.fractions(min_value=-2, max_value=3, max_denominator=16))
def test_on_segment_at_parameter(p, q, t):
    assume(p != q)
    s = Segment(p, q)
    assert on_segment(s, s.at(t)) == (0 <= t <= 1)


def _fraction_orientation(p: Point, q: Point, r: Point) -> int:
    """Oracle: the sign of (q-p) x (r-p) in Fraction arithmetic."""
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


def _fraction_on_segment(s: Segment, p: Point) -> bool:
    """Oracle: collinear with s in Fraction arithmetic and inside its box."""
    return (_fraction_orientation(s.p, s.q, p) == 0
            and min(s.p.x, s.q.x) <= p.x <= max(s.p.x, s.q.x)
            and min(s.p.y, s.q.y) <= p.y <= max(s.p.y, s.q.y))


def _along(p: Point, q: Point, k: Fraction) -> Point:
    """p + k*(q - p): a point exactly on the line through p and q."""
    return Point(p.x + k * (q.x - p.x), p.y + k * (q.y - p.y))


# numerators and denominators up to 10**12
huge = st.builds(Fraction, st.integers(-10**12, 10**12),
                 st.integers(1, 10**12))
huge_points = st.builds(Point, huge, huge)
line_params = st.fractions(min_value=-2, max_value=3,
                           max_denominator=10**6)


@st.composite
def segment_pairs(draw):
    """A segment s = pq and a segment t that is free, shares an endpoint
    with s, starts on the line through p and q, or lies on that line; the
    last three give the zero signs and every SegmentRelation."""
    p, q = draw(huge_points), draw(huge_points)
    assume(p != q)
    mode = draw(st.sampled_from(("free", "shared", "from_line", "on_line")))
    if mode == "free":
        a, b = draw(huge_points), draw(huge_points)
    elif mode == "shared":
        a, b = draw(st.sampled_from((p, q))), draw(huge_points)
    elif mode == "from_line":
        a, b = _along(p, q, draw(line_params)), draw(huge_points)
    else:
        a, b = (_along(p, q, draw(line_params)),
                _along(p, q, draw(line_params)))
    assume(a != b)
    return Segment(p, q), Segment(a, b)


# one pair per SegmentRelation, on coordinates near 10**12 in size
_P = Point(Fraction(123456789012, 999999999989),
           Fraction(-987654321098, 999999999959))
_Q = Point(Fraction(-555555555557, 777777777779),
           Fraction(333333333331, 1000000000000))
_MID = _along(_P, _Q, Fraction(1, 2))
_OFF = Point(_MID.x + Fraction(999999999999, 7), _MID.y - Fraction(1, 3))
KERNEL_EXAMPLES = {
    SegmentRelation.PROPER_CROSS: Segment(_OFF, _along(_OFF, _MID, 2)),
    SegmentRelation.TOUCH_ENDPOINT_ENDPOINT: Segment(_Q, _OFF),
    SegmentRelation.TOUCH_ENDPOINT_INTERIOR: Segment(
        _along(_P, _Q, Fraction(1, 3)), _OFF),
    SegmentRelation.OVERLAP: Segment(_MID, _along(_P, _Q, 2)),
    SegmentRelation.DISJOINT: Segment(_along(_P, _Q, 2),
                                      _along(_P, _Q, 3)),
}


def _assert_kernel_matches(s: Segment, t: Segment) -> None:
    for r in (t.p, t.q):
        assert orientation(s.p, s.q, r) == _fraction_orientation(s.p, s.q, r)
        assert orientation(r, s.q, s.p) == _fraction_orientation(r, s.q, s.p)
        assert on_segment(s, r) == _fraction_on_segment(s, r)
    assert segments_intersect(s, t) == _brute_segment_relation(s, t)
    assert segments_intersect(t, s) == _brute_segment_relation(t, s)


@settings(max_examples=300)
@given(segment_pairs())
def test_integer_kernel_matches_fraction_formulas(pair):
    _assert_kernel_matches(*pair)


def test_integer_kernel_on_every_relation():
    assert KERNEL_EXAMPLES.keys() == set(SegmentRelation)
    for rel, t in KERNEL_EXAMPLES.items():
        assert segments_intersect(Segment(_P, _Q), t) == rel
        _assert_kernel_matches(Segment(_P, _Q), t)


# points whose coordinates share a denominator d, so that their homogeneous
# triples (xn * d, yn * d, d * d) have the common factor d, with numerators
# and denominators past 2**64
big_ints = st.integers(-2**80, 2**80)
shared_denominator_points = st.builds(
    lambda xn, yn, d: Point(Fraction(xn, d), Fraction(yn, d)),
    big_ints, big_ints, st.sampled_from((1, 2, 6, 2**32, 2**65, 3**45)))
line_points = st.one_of(points, huge_points, shared_denominator_points,
                        st.builds(Point, st.builds(Fraction, big_ints),
                                  st.builds(Fraction, big_ints)))


@st.composite
def points_around_segments(draw):
    """Ends p != q and a point r that is free, an end, or on the line
    through p and q, so that every orientation sign comes up."""
    p, q = draw(line_points), draw(line_points)
    assume(p != q)
    mode = draw(st.sampled_from(("free", "end", "on_line")))
    if mode == "free":
        r = draw(line_points)
    elif mode == "end":
        r = draw(st.sampled_from((p, q)))
    else:
        r = _along(p, q, draw(line_params))
    return p, q, r


@FUZZ
@given(points_around_segments())
@example((Point(Fraction(1, 2), Fraction(1, 2)),
          Point(Fraction(3, 2), Fraction(5, 2)),
          Point(Fraction(5, 2), Fraction(9, 2))))
@example((Point(Fraction(2**65), Fraction(2**64 + 1)),
          Point(Fraction(-2**66, 3), Fraction(2**70, 3)),
          Point(Fraction(1, 2**65), Fraction(0))))
def test_segment_line_is_a_primitive_triple_of_the_orientation(pts):
    p, q, r = pts
    s = Segment(p, q)
    A, B, C = s.line
    assert math.gcd(A, B, C) == 1
    assert side(s.line, p.homogeneous) == side(s.line, q.homogeneous) == 0
    v = side(s.line, r.homogeneous)
    assert (v > 0) - (v < 0) == _fraction_orientation(p, q, r)
    assert orientation(p, q, r) == _fraction_orientation(p, q, r)
    # reversed, the segment has the opposite triple
    assert Segment(q, p).line == (-A, -B, -C)
    # the cross product of two triples is 0 at both and antisymmetric
    for u, w in ((p.homogeneous, q.homogeneous),
                 (p.homogeneous, r.homogeneous), (s.line, r.homogeneous)):
        assert side(cross(u, w), u) == side(cross(u, w), w) == 0
        assert cross(w, u) == tuple(-c for c in cross(u, w))


def _value_at(side, p, q, t):
    # the side value of p + t*(q - p), written out apart from the clip
    x0, y0, dx, dy = side
    return (dx * (p.y + t * (q.y - p.y) - y0)
            - dy * (p.x + t * (q.x - p.x) - x0))


def _triple(side):
    # the side (x0, y0, dx, dy) as A*x + B*y + C >= 0, left of the directed
    # line; neither reduced nor normalised, and (0, 0, 0) for dx = dy = 0
    x0, y0, dx, dy = side
    return -dy, dx, dy * x0 - dx * y0


# small integer sides and one reported failure keep a counterexample quick
# to shrink: rational sides took minutes on a broken clip
@settings(report_multiple_bugs=False)
@given(st.lists(st.tuples(*[st.integers(-12, 12)] * 4), max_size=6),
       points, points)
def test_clip_to_halfplanes_keeps_the_common_parameters(sides, p, q):
    iv = clip_to_halfplanes([_triple(s) for s in sides], p.homogeneous,
                            q.homogeneous)
    probes = {Fraction(k, 64) for k in range(65)}
    if iv is not None:
        (n_lo, d_lo), (n_hi, d_hi), k_lo, k_hi = iv
        assert d_lo > 0 and d_hi > 0
        t_lo, t_hi = Fraction(n_lo, d_lo), Fraction(n_hi, d_hi)
        probes |= {t_lo, t_hi}
        # a bound moved off an end of the segment names the side that set
        # it, and that side's line passes through the bound's point
        assert (k_lo is None) == (t_lo == 0)
        assert (k_hi is None) == (t_hi == 1)
        for t, k in ((t_lo, k_lo), (t_hi, k_hi)):
            if k is not None:
                assert _value_at(sides[k], p, q, t) == 0
    for t in probes:
        inside = all(_value_at(s, p, q, t) >= 0 for s in sides)
        assert inside == (iv is not None and t_lo <= t <= t_hi), t


def test_clip_tells_apart_parameters_a_float_cannot():
    # along the x axis from 0 to 1, the half-planes x >= 1/3, x >= 1/3 + e
    # and x <= 1/3 + 2e (or 1/3 + e/2) with e = 10**-30, whose parameters
    # round to one float
    e = Fraction(1, 10**30)

    def at_least(x):
        return x.denominator, 0, -x.numerator

    def at_most(x):
        return -x.denominator, 0, x.numerator

    p, q = Point(Fraction(0), Fraction(0)), Point(Fraction(1), Fraction(0))
    third = Fraction(1, 3)
    for sides, want in (
            ([at_least(third), at_least(third + e), at_most(third + 2 * e)],
             (third + e, third + 2 * e, 1, 2)),
            ([at_least(third + e), at_least(third), at_most(third + 2 * e)],
             (third + e, third + 2 * e, 0, 2)),
            ([at_least(third), at_least(third + e), at_most(third + e / 2)],
             None),
            ([at_most(third + e / 2), at_least(third + e)], None)):
        iv = clip_to_halfplanes(sides, p.homogeneous, q.homogeneous)
        if want is None:
            assert iv is None, sides
            continue
        (n_lo, d_lo), (n_hi, d_hi), k_lo, k_hi = iv
        assert (Fraction(n_lo, d_lo), Fraction(n_hi, d_hi), k_lo,
                k_hi) == want


def test_convex_hull_examples():
    tri = [point(0, 0), point(1, 0), point(0, 1)]
    assert set(convex_hull(tri)) == set(tri)
    got = convex_hull([point(0, 0), point(2, 0), point(1, 0), point(1, 1)])
    assert got == [point(0, 0), point(2, 0), point(1, 1)]
    # one point in unequal forms, ints beside Fractions or one crossing of
    # three lines through (1, 1) reached from two pairs, is one vertex
    a, b = Point(1, 2), Point(Fraction(1), Fraction(2))
    l1, l2, l3 = Line(1, 0), Line(2, 1), Line(3, 2)
    c, d = line_intersection(l1, l2), line_intersection(l1, l3)
    assert convex_hull([a, b]) == [a]
    assert convex_hull([c, d]) == [point(1, 1)]
    assert convex_hull([a, c, b, d]) == [point(1, 1), a]
    assert convex_hull([a, c, b, d, point(0, 0)]) == [
        point(0, 0), point(1, 1), a]



def test_convex_hull_orders_points_that_share_a_float_abscissa():
    # 1 and 1 + 2**-60 are one float, and -10**400 - 1 and -10**400 both
    # rank as -inf: the hull starts at the smaller exact abscissa, b, not
    # at the lower point a that a sort on floats and y would put first
    big = 10**400
    for bx, ax in ((Fraction(1), 1 + Fraction(1, 2**60)),
                   (Fraction(-big - 1), Fraction(-big))):
        b, a = Point(bx, Fraction(5)), Point(ax, Fraction(0))
        c, d = point(3, 2), point(2, 10)
        assert ratio_float(bx.numerator, bx.denominator) == \
            ratio_float(ax.numerator, ax.denominator)
        for pts in ([a, b, c, d], [d, c, b, a]):
            assert convex_hull(pts) == [b, a, c, d], bx
    assert ratio_float(-big - 1, 1) == -math.inf
    assert ratio_float(big, 3) == math.inf and ratio_float(1, 3) == 1 / 3


def _brute_hull(pts):
    """All-pairs halfplane oracle: a point is a hull vertex iff some
    directed pair keeps everything strictly on one side or on the edge."""
    uniq = sorted(set(pts), key=lambda p: (p.x, p.y))
    if len(uniq) <= 2:
        return set(uniq)
    verts = set()
    for p in uniq:
        for q in uniq:
            if p == q:
                continue
            if all(orientation(p, q, r) >= 0 for r in uniq):
                verts.add(p)
                verts.add(q)
    # drop collinear interior points of hull edges
    out = set()
    for v in verts:
        others = [w for w in verts if w != v]
        if not any(orientation(a, v, b) == 0 and
                   min(a.x, b.x) <= v.x <= max(a.x, b.x) and
                   min(a.y, b.y) <= v.y <= max(a.y, b.y)
                   for a in others for b in others if a != b):
            out.add(v)
    return out


def test_convex_hull_against_brute_force(rng):
    for _ in range(60):
        pts = [Point(Fraction(int(x), 4), Fraction(int(y), 4))
               for x, y in rng.integers(-20, 20, size=(50, 2))]
        hull = convex_hull(pts)
        assert set(hull) == _brute_hull(pts)
        for k in range(len(hull)):
            a = hull[k]
            b = hull[(k + 1) % len(hull)]
            c = hull[(k + 2) % len(hull)]
            assert orientation(a, b, c) == 1   # strictly convex and CCW


def test_winding_square_loop():
    loop = [point(1, -1), point(1, 1), point(-1, 1), point(-1, -1),
            point(1, -1)]
    down = Ray(point(0, 0), scalar(0), scalar(-1))
    assert winding_number(loop, down) == -1


def test_winding_right_halfplane_zero():
    poly = [point(1, 1), point(2, 0), point(1, -1)]
    left = Ray(point(0, 0), scalar(-1), scalar(0))
    assert winding_number(poly, left) == 0


def test_winding_k_loops():
    loop = [point(1, -1), point(1, 1), point(-1, 1), point(-1, -1)]
    for k in range(1, 6):
        poly = loop * k + [loop[0]]
        down = Ray(point(0, 0), scalar(0), scalar(-1))
        assert winding_number(poly, down) == -k
        rev = list(reversed(poly))
        assert winding_number(rev, down) == k


def test_winding_degenerate_contacts():
    down = Ray(point(0, 0), scalar(0), scalar(-1))
    with pytest.raises(DegenerateContact):
        winding_number([point(-1, -1), point(0, -2), point(1, -1)], down)
    with pytest.raises(DegenerateContact):
        winding_number([point(0, -1), point(0, -3), point(1, 1)], down)
    with pytest.raises(DegenerateContact):
        winding_number([point(-1, 0), point(1, 0)], down)


def test_winding_after_a_run_along_the_rays_line_behind_the_origin():
    # two vertices on the ray's line behind the origin, then a crossing of
    # the ray from its left (x > 0 looking down): no contact, winding +1
    down = Ray(point(0, 0), scalar(0), scalar(-1))
    poly = [point(0, 3), point(0, 1), point(1, 0), point(1, -2),
            point(-1, -2)]
    assert winding_number(poly, down) == 1
    assert winding_number(list(reversed(poly)), down) == -1


def test_winding_ray_invariance_star_shaped(rng):
    """Any two valid rays from the same origin see the same winding number
    of a closed loop."""
    for _ in range(25):
        m = int(rng.integers(4, 9))
        radii = [Fraction(int(r), 3) for r in rng.integers(3, 30, size=m)]
        base = [(Fraction(int(a), 100), r)
                for a, r in zip(sorted(rng.choice(628, size=m,
                                                  replace=False)), radii)]
        loop = []
        for a, r in base:
            x = Fraction(round(math.cos(float(a)) * 10**6), 10**6) * r
            y = Fraction(round(math.sin(float(a)) * 10**6), 10**6) * r
            loop.append(Point(x, y))
        loop.append(loop[0])
        values = []
        for _ in range(6):
            d = (Fraction(int(rng.integers(-40, 40)), 7),
                 Fraction(int(rng.integers(-40, 40)), 11))
            if d == (0, 0):
                continue
            try:
                values.append(winding_number(
                    loop, Ray(point(0, 0), d[0], d[1])))
            except DegenerateContact:
                continue
        assert len(set(values)) <= 1


def test_angle_gap_examples():
    def gap(s1, s2):
        return angle_gap(Line(scalar(s1), scalar(0)),
                         Line(scalar(s2), scalar(0)))
    # -cot of the gap: -1 at 45 degrees, 0 at a right angle, > 0 when obtuse
    assert gap(0, 1) == gap(1, 0) == -1
    assert gap(-1, 1) == gap(1, -1) == 0
    assert gap("-2", "1/2") == 0
    assert gap(-2, 2) == Fraction(3, 4)
    assert gap(0, "1/100") < gap(0, 1) < gap(-1, 1) < gap(-2, 2)
    with pytest.raises(ParallelLines):
        gap(3, 3)
    pair1 = (Line(scalar(0), scalar(0)), Line(scalar(1), scalar(0)))
    pair2 = (Line(scalar(1), scalar(0)), Line(scalar(3), scalar(0)))
    assert compare_angle_gap(pair1, pair2) == 1


def _arctan_gap(a, b):
    lo, hi = sorted((a, b))
    return mpmath.atan(mpmath.mpf(hi.numerator) / hi.denominator) \
        - mpmath.atan(mpmath.mpf(lo.numerator) / lo.denominator)


def _assert_gaps_match_arctan(s):
    """compare_angle_gap and the gap values of the pairs (s0, s1) and
    (s2, s3) order as the arctan gaps do, and each value's sign reads its
    gap against a right angle.  Returns the arctan comparison and the
    first pair's gap value."""
    pair1 = (Line(s[0], Fraction(0)), Line(s[1], Fraction(0)))
    pair2 = (Line(s[2], Fraction(0)), Line(s[3], Fraction(0)))
    got = compare_angle_gap(pair1, pair2)
    a1, a2 = _arctan_gap(s[0], s[1]), _arctan_gap(s[2], s[3])
    diff = a1 - a2
    if abs(diff) > mpmath.mpf("1e-60"):
        want = 1 if diff > 0 else -1
    else:
        want = 0
    assert got == want
    # the gap values themselves order the same way
    g1, g2 = angle_gap(*pair1), angle_gap(*pair2)
    assert (g1 < g2, g1 == g2, g1 > g2) == (want < 0, want == 0, want > 0)
    for g, a in ((g1, a1), (g2, a2)):
        off = a - mpmath.pi / 2
        right = abs(off) <= mpmath.mpf("1e-60")
        assert (g < 0, g == 0, g > 0) == (not right and off < 0, right,
                                          not right and off > 0)
    return want, g1


def test_compare_angle_gap_against_arctan(rng):
    mpmath.mp.dps = 100
    for _ in range(10_000):
        s = [Fraction(int(v), 64) for v in rng.integers(-300, 300, size=4)]
        if s[0] == s[1] or s[2] == s[3]:
            continue
        _assert_gaps_match_arctan(s)
    # forced right-angle pairs (s, -1/s), against random pairs, against
    # each other, and pairs turned by a common rational rotation, which
    # keeps the gap: ties at acute, right and obtuse gaps
    ties = set()
    for _ in range(2_000):
        v = [Fraction(int(x), 64) for x in rng.integers(-300, 300, size=4)]
        if 0 in v[:2] or v[0] == v[1]:
            continue
        for s in ([v[0], -1 / v[0], v[1], v[2]],
                  [v[0], -1 / v[0], v[1], -1 / v[1]]):
            if s[2] != s[3]:
                _assert_gaps_match_arctan(s)
        t = v[3]          # tan of the common rotation
        for pair in ((v[0], v[1]), (v[0], -1 / v[0])):
            if min(1 - x * t for x in pair) <= 0:
                continue  # a line turns past vertical: the gap flips
            want, g = _assert_gaps_match_arctan(
                list(pair) + [(x + t) / (1 - x * t) for x in pair])
            assert want == 0
            ties.add((g > 0) - (g < 0))
    assert ties == {-1, 0, 1}


@pytest.mark.parametrize("call, message", [
    (lambda: Ray(Point(0, 0), Fraction(0), Fraction(0)),
     "ray needs a nonzero direction"),
    (lambda: convex_hull([]), "convex_hull of empty set"),
    (lambda: winding_number([Point(0, 0)],
                            Ray(Point(0, 0), Fraction(1), Fraction(0))),
     "polyline needs at least 2 points"),
])
def test_input_checks_raise_their_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

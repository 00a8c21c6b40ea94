"""Line set validation, cap/cup structure, and the region partition."""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from treelines import lineset
from treelines.geometry import (
    Line,
    Point,
    PostconditionError,
    Segment,
    at_infinity,
    convex_hull,
    cross,
    line_intersection,
    on_segment,
    orientation,
    scalar,
    side,
)
from treelines.lineset import (
    CapCup,
    ColorClasses,
    ConcurrentTriple,
    DuplicateLine,
    EmptyRegion,
    HullSide,
    LineSet,
    LineSetError,
    OnIntersection,
    ParallelPair,
    RegionIndex,
    TooFew,
    all_region_indices,
    classify_cap_cup,
    intersection_order,
    longest_cap_cup,
    region_hull,
    region_of,
    segment_index_of,
    verify_general_position,
)
from treelines.ramsey import mono_path_bound

from conftest import (angle_lineset, dualize_line, mirrored, random_cup,
                      random_lines, region_generators, translate_hull)


def L(s, b):
    return Line(scalar(s), scalar(b))


def test_general_position_examples():
    with pytest.raises(ConcurrentTriple):
        verify_general_position([L(1, 0), L(2, 1), L(3, 2)])
    with pytest.raises(ParallelPair):
        verify_general_position([L(1, 0), L(1, 1)])
    with pytest.raises(DuplicateLine):
        verify_general_position([L(1, 0), L(1, 0)])
    ls = verify_general_position([L(0, 0), L(1, 0), L(-1, -5)])
    assert [l.slope for l in ls] == [-1, 0, 1]
    assert [l.id for l in ls] == [1, 2, 3]


def test_general_position_errors_carry_input_positions():
    # 0-based positions in the caller's list, not slope-order ids
    with pytest.raises(ConcurrentTriple) as exc:
        verify_general_position([L(0, 5), L(3, 2), L(1, 0), L(2, 1)])
    assert exc.value.triple == (1, 2, 3)
    with pytest.raises(ParallelPair) as exc:
        verify_general_position([L(0, 0), L(1, 0), L(2, 3), L(1, 1)])
    assert exc.value.pair == (1, 3)
    with pytest.raises(DuplicateLine) as exc:
        verify_general_position([L(5, 1), L(1, 0), L(1, 0)])
    assert exc.value.pair == (1, 2)


def test_concurrent_triple_off_the_integer_grid():
    # three lines through (1/3, 2/5), whose coordinates have different
    # denominators, among two lines off it, in two input orders
    through = [L(1, "-1/15"), L(2, "4/15"), L("-1/2", "-17/30")]
    with pytest.raises(ConcurrentTriple) as exc:
        verify_general_position([L(0, 7), through[0], L(5, 1), through[1],
                                 through[2]])
    assert exc.value.triple == (1, 3, 4)
    with pytest.raises(ConcurrentTriple) as exc:
        verify_general_position([through[2], L(5, 1), through[1], L(0, 7),
                                 through[0]])
    assert exc.value.triple == (0, 2, 4)


def test_construction_guard():
    with pytest.raises(TypeError):
        LineSet([L(0, 0)])


def test_classify_needs_three():
    with pytest.raises(TooFew):
        classify_cap_cup(verify_general_position([L(0, 0), L(1, 0)]))


def _dual_chain_kind(ls):
    """Cap/cup/neither of the dual POINT set: strictly concave chains count
    as caps of points, convex as cups."""
    pts = [dualize_line(l) for l in ls]
    turns = {orientation(a, b, c)
             for a, b, c in zip(pts, pts[1:], pts[2:])}
    if turns == {-1}:
        return CapCup.CAP
    if turns == {1}:
        return CapCup.CUP
    return CapCup.NEITHER


def test_cap_iff_dual_cap_chain(rng):
    """The duality preserves cap/cup orientation: a line cap dualizes to a
    concave (cap) point chain and a line cup to a convex (cup) chain."""
    caps = angle_lineset([1, 5, 11, 19, 30, 44])
    cups = angle_lineset([1, 5, 11, 19, 30, 44], cup=True)
    assert classify_cap_cup(caps) == CapCup.CAP
    assert _dual_chain_kind(caps) == CapCup.CAP
    assert classify_cap_cup(cups) == CapCup.CUP
    assert _dual_chain_kind(cups) == CapCup.CUP
    for _ in range(30):
        ls = random_lines(rng, int(rng.integers(3, 8)))
        assert classify_cap_cup(ls) == _dual_chain_kind(ls)


def _row_walk_kind(ls):
    """Cap/cup by the full definition: along every line the crossings with
    the others, taken in id order, run right to left for a cap and left
    to right for a cup."""
    n = len(ls)
    rows = [[ls.intersection(i, j).x for j in range(1, n + 1) if j != i]
            for i in range(1, n + 1)]
    if all(a > b for xs in rows for a, b in zip(xs, xs[1:])):
        return CapCup.CAP
    if all(a < b for xs in rows for a, b in zip(xs, xs[1:])):
        return CapCup.CUP
    return CapCup.NEITHER


def _near_cup(rng, n):
    """A random cup with one dual offset moved by k/1009, which may keep
    it a cup or break it; retries until the validators pass."""
    while True:
        lines = list(random_cup(rng, n))
        i = int(rng.integers(n))
        k = int(rng.integers(-3000, 3001))
        lines[i] = Line(lines[i].slope,
                        lines[i].dual_offset + Fraction(k, 1009))
        try:
            return verify_general_position(lines)
        except LineSetError:
            continue


def test_classify_matches_the_row_walk(rng):
    seen = defaultdict(int)
    near_kinds = set()
    for n in range(3, 31):
        cup, near = random_cup(rng, n), _near_cup(rng, n)
        near_kinds.add(_row_walk_kind(near))
        for ls in (random_lines(rng, n), cup, mirrored(cup), near,
                   mirrored(near)):
            kind = _row_walk_kind(ls)
            assert classify_cap_cup(ls) == kind, n
            seen[kind] += 1
            extracted, sub = longest_cap_cup(ls)
            assert _row_walk_kind(sub) == extracted
            if kind != CapCup.NEITHER:
                assert (extracted, len(sub)) == (kind, n)
    # every kind is reached, and some near-cups stay cups while others break
    assert min(seen[kind] for kind in CapCup) >= 28, seen
    assert near_kinds == {CapCup.CUP, CapCup.NEITHER}


def test_classify_reads_the_crossings_of_consecutive_lines(rng,
                                                           monkeypatch):
    # the crossings are the meets of consecutive line triples, read
    # through one cross on their columns
    read = []
    cross = lineset.cross

    def counted(g, h):
        read.append([[tuple(t) for t in c.T] for c in (g, h)])
        return cross(g, h)

    monkeypatch.setattr(lineset, "cross", counted)
    for n in (3, 12, 30):
        for ls in (random_lines(rng, n), random_cup(rng, n)):
            read.clear()
            classify_cap_cup(ls)
            hs = [l.homogeneous for l in ls]
            assert read == [[hs[:-1], hs[1:]]]


def test_longest_cap_cup_caches_no_crossing_points(rng, monkeypatch):
    # the DP keys each pair by its exact abscissa; it builds no Point, so
    # the line set's crossing cache stays as it was
    asked = []
    intersection = LineSet.intersection

    def spy(self, i, j):
        asked.append(self)
        return intersection(self, i, j)

    monkeypatch.setattr(LineSet, "intersection", spy)
    for n in (3, 12, 30):
        for ls in (random_lines(rng, n), random_cup(rng, n)):
            longest_cap_cup(ls)
            assert ls not in asked


def _brute_longest_cap_cup(ls):
    best = 0
    n = len(ls)
    for size in range(3, n + 1):
        for ids in itertools.combinations(range(1, n + 1), size):
            if classify_cap_cup(ls.subset(ids)) != CapCup.NEITHER:
                best = max(best, size)
    return best


def test_longest_cap_cup_full_concave_arc():
    # duals on a concave arc (i, -i^2): the whole set is one cap
    ls = verify_general_position(
        [Line(Fraction(i), Fraction(-i * i)) for i in range(1, 9)])
    kind, sub = longest_cap_cup(ls)
    assert kind == CapCup.CAP
    assert len(sub) == 8


def test_longest_cap_cup_vs_brute_force(rng):
    for _ in range(25):
        ls = random_lines(rng, int(rng.integers(4, 9)))
        kind, sub = longest_cap_cup(ls)
        assert classify_cap_cup(sub) == kind
        assert len(sub) == max(_brute_longest_cap_cup(ls), 3)


def test_longest_cap_cup_prefers_the_cap_on_ties(rng):
    ties = 0
    for _ in range(40):
        ls = random_lines(rng, int(rng.integers(4, 8)))
        n = len(ls)
        largest = defaultdict(int)
        for size in range(3, n + 1):
            for ids in itertools.combinations(range(1, n + 1), size):
                largest[classify_cap_cup(ls.subset(ids))] = size
        kind, _ = longest_cap_cup(ls)
        ties += largest[CapCup.CAP] == largest[CapCup.CUP]
        assert kind == (CapCup.CAP if largest[CapCup.CAP]
                        >= largest[CapCup.CUP] else CapCup.CUP)
    assert ties >= 5


def test_longest_cap_cup_raises_when_its_subset_fails_the_check(
        rng, monkeypatch):
    monkeypatch.setattr(lineset, "classify_cap_cup",
                        lambda ls: CapCup.NEITHER)
    with pytest.raises(PostconditionError):
        longest_cap_cup(random_lines(rng, 8))


def test_subset_keeps_parent_ids(rng):
    ls = random_lines(rng, 10)
    sub = ls.subset([9, 2, 5, 7])
    assert ls.parent_ids is None
    assert sub.parent_ids == (2, 5, 7, 9)
    assert [l.id for l in sub] == [1, 2, 3, 4]
    assert [(l.slope, l.dual_offset) for l in sub] == [
        (ls.line(i).slope, ls.line(i).dual_offset) for i in sub.parent_ids]
    # ids refer to the set a subset was cut from, not to the first one
    assert sub.subset([2, 4]).parent_ids == (2, 4)


def test_longest_cap_cup_erdos_szekeres_bound(rng):
    for n in (20, 50):
        ls = random_lines(rng, n)
        _, sub = longest_cap_cup(ls)
        assert len(sub) >= mono_path_bound(n)


def test_intersection_order_basic():
    ls = verify_general_position([L(-1, 0), L(0, -1), L(1, 0)])
    entries = intersection_order(ls, 2)
    assert len(entries) == 2
    assert entries[0][1].x < entries[1][1].x
    # y = 1 meets y = -x at (-1, 1) and y = x at (1, 1)
    assert entries[0] == (1, Point(Fraction(-1), Fraction(1)))
    assert entries[1] == (3, Point(Fraction(1), Fraction(1)))


def test_intersection_order_on_cap():
    ls = angle_lineset([2, 9, 17, 26, 40])
    assert classify_cap_cup(ls) == CapCup.CAP
    partners = [j for j, _ in intersection_order(ls, 1)]
    assert partners == [5, 4, 3, 2]     # right-to-left along l1 = ids 2..n


def _along(s, r):
    """The parameter t of the point r = s.p + t*(s.q - s.p) of s's line."""
    dx, dy = s.q.x - s.p.x, s.q.y - s.p.y
    return ((r.x - s.p.x) * dx + (r.y - s.p.y) * dy) / (dx * dx + dy * dy)


def _assert_crossings_on(ls, seg):
    """crossings_on, both ways along seg, against the oracle: every
    arrangement point that on_segment puts on the closed segment, in
    order from the segment's first end."""
    want = {p for p in ls.intersection_points() if on_segment(seg, p)}
    for s in (seg, Segment(seg.q, seg.p)):
        got = ls.crossings_on(s)
        assert set(got) == want, (s, got, want)
        ts = [_along(s, r) for r in got]
        assert all(t < u for t, u in zip(ts, ts[1:])), (s, got)
    return want


def test_crossings_on_matches_the_points_on_the_segment(rng):
    found, several = defaultdict(int), defaultdict(int)
    for n in (2, 3, 5, 8, 12):
        for _ in range(8):
            ls = random_lines(rng, n)
            pts = ls.intersection_points()

            def crossing():
                return pts[int(rng.integers(0, len(pts)))]

            def near(u, v):
                # u + t*(v - u) for a random t in [-1, 2]: near the
                # crossings, and on them for t = 0, 1
                t = Fraction(int(rng.integers(-12, 25)), 12)
                return Point(u.x + t * (v.x - u.x), u.y + t * (v.y - u.y))

            u, v = crossing(), crossing()
            cases = {"random": (near(u, v), near(v, u)),
                     "one end on": (u, near(u, v)),
                     "both ends on": (u, v),
                     "through": (Point(u.x - 1, u.y - 3),
                                 Point(u.x + 1, u.y + 3))}
            if u != v:
                # through two crossings, both inside the segment
                cases["through two"] = (Segment(u, v).at(Fraction(-1, 3)),
                                        Segment(u, v).at(Fraction(4, 3)))
            # along line i: ends on crossings, between them, beyond them
            i = int(rng.integers(1, n + 1))
            row = [pt for _, pt in intersection_order(ls, i)]
            xs = ([row[0].x - 1] + [(a.x + b.x) / 2
                                    for a, b in zip(row, row[1:])]
                  + [row[-1].x + 1])
            a, b = sorted(int(k) for k in rng.choice(len(xs), 2,
                                                     replace=False))
            on = ls.line(i).point_at
            cases["along, ends off"] = (on(xs[a]), on(xs[b]))
            cases["along, one end on"] = (row[min(a, len(row) - 1)],
                                          on(xs[-1] + 1))
            if len(row) > 1:
                a, b = sorted(int(k) for k in rng.choice(len(row), 2,
                                                         replace=False))
                cases["along, ends on"] = (row[a], row[b])
            for kind, (p, q) in cases.items():
                if p != q:
                    met = len(_assert_crossings_on(ls, Segment(p, q)))
                    found[kind] += met
                    several[kind] += met >= 3
    # every kind but the random segments meets crossings, and the order
    # is tested through three or more on the segments along a line and on
    # those through two crossings, which meet a third often enough
    assert all(found[kind] > 0 for kind in found if kind != "random")
    assert all(several[kind] > 0 for kind in ("through two",
                                              "along, ends off",
                                              "along, ends on"))


def test_color_classes():
    cc = ColorClasses(4, 12)
    assert cc.block == 3
    assert [cc.class_of(i) for i in (1, 3, 4, 12)] == [1, 1, 2, 4]
    assert list(cc.ids_of_class(2)) == [4, 5, 6]
    with pytest.raises(Exception):
        ColorClasses(5, 12)


def test_region_index_family_count():
    assert len(all_region_indices(ColorClasses(4, 12))) == 10


def test_region_of_trace_small():
    # 4 lines, c = 2: a point on l1 left of everything sits in segment 1,
    # line 1 is in class 1, so the region is (1,1)
    ls = angle_lineset([3, 11, 22, 37])
    cc = ColorClasses(2, 4)
    far_left = min(p.x for _, p in intersection_order(ls, 1)) - 5
    assert region_of(ls, cc, 1, far_left) == RegionIndex(1, 1)
    far_right = max(p.x for _, p in intersection_order(ls, 4)) + 5
    assert region_of(ls, cc, 4, far_right) == RegionIndex(2, 2)
    with pytest.raises(OnIntersection):
        x = intersection_order(ls, 1)[0][1].x
        region_of(ls, cc, 1, x)


def test_region_partition_well_defined(rng):
    ls = random_lines(rng, 12)
    cc = ColorClasses(4, 12)
    for i in range(1, 13):
        xs = [p.x for _, p in intersection_order(ls, i)]
        samples = [xs[0] - 1, xs[-1] + 1]
        samples += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for x in samples:
            r = region_of(ls, cc, i, x)
            assert 1 <= r.a <= r.b <= 4
            # two points of the same open segment agree
            seg = segment_index_of(ls, cc, i, x)
            assert region_of(ls, cc, i, x) == r
            assert (min(cc.class_of(i), seg), max(cc.class_of(i), seg)) \
                == (r.a, r.b)


def test_region_hull_rejects_color_classes_of_another_size(rng):
    # a 24-line cup with classes sized for 12 lines: region_hull raises the
    # error region_of raises, rather than building a hull of lines 1..12,
    # and segment_index_of does not answer segment 8 of 4
    ls = random_cup(rng, 24)
    cc = ColorClasses(4, 12)
    x = max(p.x for _, p in intersection_order(ls, 1)) + 1
    for locate in (region_of, segment_index_of):
        with pytest.raises(LineSetError,
                           match="sized for a different line set"):
            locate(ls, cc, 1, x)
    for r in all_region_indices(cc):
        with pytest.raises(LineSetError,
                           match="sized for a different line set"):
            region_hull(ls, cc, r)
    region_hull(ls, ColorClasses(4, 24), RegionIndex(1, 1))
    # on a set of the right size, a class beyond c names no region
    with pytest.raises(EmptyRegion, match="out of range for c=4"):
        region_hull(random_cup(rng, 8), ColorClasses(4, 8),
                    RegionIndex(1, 5))


def test_region_hull_contains_its_segments(rng):
    for trial in range(8):
        ls = random_lines(rng, 12)
        cc = ColorClasses(4, 12)
        hulls = {r: region_hull(ls, cc, r) for r in all_region_indices(cc)}
        for i in range(1, 13):
            xs = [p.x for _, p in intersection_order(ls, i)]
            probe = [xs[0] - 3, xs[-1] + 3] + \
                    [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            for x in probe:
                r = region_of(ls, cc, i, x)
                assert hulls[r].contains(ls.line(i).point_at(x)), (trial, i)


def test_region_hull_shapes(rng):
    ls = random_lines(rng, 12)
    cc = ColorClasses(4, 12)
    inter = set(ls.intersection_points())
    for r in all_region_indices(cc):
        h = region_hull(ls, cc, r)
        assert all(v in inter for v in h.vertices)
        if h.bounded:
            assert h.side_count == len(h.vertices) >= 3
        else:
            dirs = [s.direction for s in h.sides if s.direction is not None]
            assert len(dirs) == 2
            slopes = {l.slope for l in ls}
            for dx, dy in dirs:
                assert dy / dx in slopes


def _past_ends(s):
    """Points on a side's supporting line just beyond its finite ends: past
    both ends of a finite side, behind the apex of a ray side."""
    if s.start is not None and s.end is not None:
        dx, dy = (s.end.x - s.start.x) / 64, (s.end.y - s.start.y) / 64
        return [Point(s.end.x + dx, s.end.y + dy),
                Point(s.start.x - dx, s.start.y - dy)]
    # a ray side is its apex plus the nonnegative multiples of direction
    apex = s.start if s.start is not None else s.end
    dx, dy = s.direction
    return [Point(apex.x - dx / 64, apex.y - dy / 64)]


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=97)
points = st.builds(Point, rationals, rationals)


def _sign(v):
    return (v > 0) - (v < 0)


@given(st.sampled_from(["edge", "ray out", "ray in"]), points, points,
       st.tuples(rationals, rationals), points, rationals)
def test_hull_side_triple_is_primitive_and_signed_as_the_cross_product(
        kind, a, b, d, p, k):
    # the directed line (x0, y0, dx, dy) of each kind of side, the hull on
    # its left: a ray with no start comes in from infinity along -d
    if kind == "edge":
        assume(a != b)
        hs, (x0, y0, dx, dy) = HullSide(a, b), (a.x, a.y, b.x - a.x,
                                                b.y - a.y)
    else:
        assume(d != (0, 0))
        if kind == "ray out":
            hs, (x0, y0, dx, dy) = HullSide(a, None, d), (a.x, a.y, *d)
        else:
            hs, (x0, y0, dx, dy) = HullSide(None, a, d), (a.x, a.y,
                                                          -d[0], -d[1])
    A, B, C = hs.halfplane
    assert all(type(v) is int for v in (A, B, C))
    assert math.gcd(A, B, C) == 1
    # the sign of the cross product (dx, dy) x (p - (x0, y0))
    assert _sign(side(hs.halfplane, p.homogeneous)) == \
        _sign(dx * (p.y - y0) - dy * (p.x - x0))
    assert side(hs.halfplane,
                Point(x0 + k * dx, y0 + k * dy).homogeneous) == 0


def test_region_hull_side_labels(rng):
    for ls, c in ((random_lines(rng, 8), 2), (random_cup(rng, 12), 4)):
        cc = ColorClasses(c, len(ls))
        for r in all_region_indices(cc):
            h = region_hull(ls, cc, r)
            # a point strictly inside: the centroid of the vertices, moved
            # into the recession cone of an unbounded hull
            cx = sum(v.x for v in h.vertices) / len(h.vertices)
            cy = sum(v.y for v in h.vertices) / len(h.vertices)
            for s in h.sides:
                if s.direction is not None:
                    cx, cy = cx + s.direction[0], cy + s.direction[1]
            for k, s in enumerate(h.sides):
                # on the side's supporting line but off the side
                for p in _past_ends(s):
                    assert side(s.halfplane, p.homogeneous) == 0, (r, k)
                # the hull lies on the side's left
                assert side(s.halfplane,
                            Point(cx, cy).homogeneous) > 0, (r, k)
            if h.bounded:
                # side 1 starts at the smallest vertex by (x, y)
                assert h.vertices[0] == min(h.vertices,
                                            key=lambda v: (v.x, v.y))


def test_region_hull_rejects_flat_regions(rng):
    # at c = n each R_{a,a} is one piece of line a: a segment between two
    # crossings, or a ray for a = 1 and a = c; neither has an interior
    for n in (2, 3, 4, 6):
        cc = ColorClasses(n, n)
        for ls in (random_lines(rng, n), random_cup(rng, n)):
            for a in range(1, n + 1):
                with pytest.raises(LineSetError,
                                   match=r"degenerate \(flat\) region"):
                    region_hull(ls, cc, RegionIndex(a, a))


def _hull_or_error(build, ls, cc, r):
    try:
        return build(ls, cc, r)
    except LineSetError as exc:
        return type(exc), str(exc)


def _ray_along_an_edge(ls, cc, r):
    """Whether an edge of the polygon of the unbounded region r runs
    along one of its two extreme ray directions."""
    finite, dirs = region_generators(ls, cc, r)
    q = [v.homogeneous for v in convex_hull(finite)]
    ends = [at_infinity(*d) for d in lineset._extreme_directions(dirs)]
    return len(q) > 1 and any(side(cross(u, v), e) == 0 for e in ends
                              for u, v in zip(q, q[1:] + q[:1]))


def test_unbounded_region_hulls_match_the_translate_hull(rng):
    # the chain between the polygon's tangents against the hull of the
    # polygon and its translates: vertices, sides with their directions
    # and labels, or the same error; on cups, caps and sets that are
    # neither, a polygon edge along a ray among them
    kinds, along = set(), 0
    for c, n in itertools.product(range(2, 7), range(3, 19)):
        if n % c or n > 3 * c:
            continue
        cc = ColorClasses(c, n)
        for _ in range(3):
            cup = random_cup(rng, n)
            for ls in (cup, mirrored(cup), random_lines(rng, n)):
                kinds.add(classify_cap_cup(ls))
                for r in all_region_indices(cc):
                    oracle = _hull_or_error(translate_hull, ls, cc, r)
                    if oracle is not None:
                        assert _hull_or_error(region_hull, ls, cc,
                                              r) == oracle, (c, r)
                        along += _ray_along_an_edge(ls, cc, r)
    assert kinds == set(CapCup) and along > 20


def test_random_lines_needs_n_slopes(rng):
    # span=3 offers the 6 slopes k/997 for k in -3..2, fewer than 7
    with pytest.raises(ValueError, match="fewer than n=7 slopes"):
        random_lines(rng, 7, span=3)


# --------------------------------------------------------------------------
# brute-force oracle for region_hull, independent of its member and segment
# bookkeeping: every piece of every line between consecutive crossings goes
# to the region that region_of names, and a facet of the region's hull is
# any line through two generators (or a generator and a ray direction) that
# leaves all generators on one closed side.


def _line_pieces(ls, i):
    """(sample x, finite endpoints, ray directions) of the n pieces of line
    i between consecutive crossings, left to right."""
    l = ls.line(i)
    xs = sorted(line_intersection(l, m).x for m in ls if m.id != i)
    pts = [l.point_at(x) for x in xs]
    pieces = [(xs[0] - 1, [pts[0]], [(Fraction(-1), -l.slope)])]
    pieces += [((x0 + x1) / 2, [p0, p1], [])
               for x0, x1, p0, p1 in zip(xs, xs[1:], pts, pts[1:])]
    pieces.append((xs[-1] + 1, [pts[-1]], [(Fraction(1), l.slope)]))
    return pieces


def _normal_form(p, dx, dy):
    """The line through p with direction (dx, dy) as a*x + b*y = c, scaled
    so that its first nonzero normal coordinate is 1."""
    a, b = -dy, dx
    k = a if a != 0 else b
    return (a / k, b / k, (a * p.x + b * p.y) / k)


def _cross2(ox, oy, ax, ay):
    """The 2-D cross product of two directions, in Fraction arithmetic."""
    return ox * ay - oy * ax


def _facet_lines(pts, dirs):
    candidates = [(p, (q.x - p.x, q.y - p.y))
                  for p, q in itertools.combinations(pts, 2)]
    candidates += [(p, d) for p in pts for d in dirs]
    facets = set()
    for p, (dx, dy) in candidates:
        values = itertools.chain(
            (_cross2(dx, dy, q.x - p.x, q.y - p.y) for q in pts),
            (_cross2(dx, dy, ex, ey) for ex, ey in dirs))
        left = right = False
        for v in values:
            left |= v > 0
            right |= v < 0
            if left and right:
                break
        else:
            facets.add(_normal_form(p, dx, dy))
    return facets


def _brute_region_facets(ls, cc):
    """Supporting lines of the facets of every region's closed convex
    hull, keyed by region index."""
    generators = defaultdict(lambda: (set(), set()))
    for i in range(1, len(ls) + 1):
        for x, ends, dirs in _line_pieces(ls, i):
            pts, ds = generators[region_of(ls, cc, i, x)]
            pts.update(ends)
            ds.update(dirs)
    return {r: _facet_lines(pts, ds) for r, (pts, ds) in generators.items()}


def _side_lines(h):
    """Supporting line of each side of a RegionHull, in side order."""
    out = []
    for s in h.sides:
        if s.start is not None and s.end is not None:
            out.append(_normal_form(s.start, s.end.x - s.start.x,
                                    s.end.y - s.start.y))
        else:
            anchor = s.start if s.start is not None else s.end
            out.append(_normal_form(anchor, *s.direction))
    return out


def _assert_hulls_match_oracle(ls, cc):
    facets = _brute_region_facets(ls, cc)
    assert set(facets) == set(all_region_indices(cc))
    for r in all_region_indices(cc):
        sides = _side_lines(region_hull(ls, cc, r))
        assert sorted(sides) == sorted(facets[r]), r


def test_region_hull_matches_brute_force_oracle(rng):
    for n, c in ((12, 4), (8, 2), (9, 3)):
        cc = ColorClasses(c, n)
        for _ in range(3):
            cup = random_cup(rng, n)
            cap = mirrored(cup)
            assert classify_cap_cup(cup) == CapCup.CUP
            assert classify_cap_cup(cap) == CapCup.CAP
            for ls in (random_lines(rng, n), cap, cup):
                _assert_hulls_match_oracle(ls, cc)


# Smallest exact counterexamples to the five-side region-hull bound found by
# random search over small integer coefficients: a non-cup set at n=6, c=3
# (1500 random sets at n=4, c=2 and n=6, c=2 stayed within 4 sides), and a
# cap at n=8, c=4, the class count of acceptance criterion 9.  Rows are
# (slope, dual_offset).
SIX_SIDED_REGIONS = [
    pytest.param([(-3, -3), (-2, -2), (-1, 1), (0, -2), (1, 2), (3, 2)],
                 3, CapCup.NEITHER, RegionIndex(1, 2), id="neither-n6-c3"),
    pytest.param([(-4, -3), (-3, 0), (-2, 2), (0, 4), (1, 4), (2, 3),
                  (3, 1), (4, -2)],
                 4, CapCup.CAP, RegionIndex(2, 3), id="cap-n8-c4"),
]


@pytest.mark.parametrize("rows, c, kind, region", SIX_SIDED_REGIONS)
def test_six_sided_region_hull_off_cups(rows, c, kind, region):
    ls = verify_general_position([L(s, b) for s, b in rows])
    cc = ColorClasses(c, len(ls))
    assert classify_cap_cup(ls) == kind != CapCup.CUP
    assert region_hull(ls, cc, region).side_count == 6
    assert len(_brute_region_facets(ls, cc)[region]) == 6
    _assert_hulls_match_oracle(ls, cc)


# region_hull's checks on the direction cone of an unbounded hull (a cone
# of a half-plane or more, a cone wider than pi, a probe outside the hull)
# stay untested: slope-block classes keep every region's ray directions
# inside a half-plane, so no valid input reaches them
@pytest.mark.parametrize("call, message", [
    (lambda ls: ls.line(len(ls) + 1), "no line with id 5"),
    (lambda ls: ColorClasses(2, 4).class_of(5), "no line with id 5"),
    (lambda ls: ColorClasses(2, 4).ids_of_class(3), "no class 3"),
    (lambda ls: RegionIndex(2, 1), "bad region index (2,1)"),
    (lambda ls: region_hull(ls, ColorClasses(1, 4), RegionIndex(1, 1)),
     "region hulls need at least 2 color classes"),
])
def test_input_checks_raise_their_error(call, message):
    ls = verify_general_position([L(-1, 0), L(0, -1), L(1, 0), L(3, 1)])
    with pytest.raises(LineSetError) as exc:
        call(ls)
    assert type(exc.value) is LineSetError and str(exc.value) == message

"""Shared helpers: random rational line sets, angle-based frames and
forced-length chains near the lemma's guard band, and the inputs of the
acceptance criteria that tools/differential.py records too."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from treelines import lineset, unstretch
from treelines.embed import Assignment, Embedding, Tree, ViolationKind
from treelines.geometry import Line, Point, convex_hull, scalar
from treelines.io_formats import serialize_lines
from treelines.lineset import (HullSide, LineSet, LineSetError, RegionHull,
                               verify_general_position)


def random_lines(rng: np.random.Generator, n: int,
                 span: int = 4000) -> LineSet:
    """A random general-position LineSet of n lines with rational
    coefficients; retries until the validators pass.  Raises ValueError
    when the 2 * span slopes on offer are fewer than n."""
    if 2 * span < n:
        raise ValueError(f"span={span} offers fewer than n={n} slopes")
    while True:
        lines = [Line(Fraction(int(rng.integers(-span, span)), 997),
                      Fraction(int(rng.integers(-span, span)), 1009))
                 for _ in range(n)]
        try:
            return verify_general_position(lines)
        except LineSetError:
            continue


def random_cup(rng: np.random.Generator, n: int,
               span: int = 4000) -> LineSet:
    """A random cup of n lines: the dual points (slope, dual_offset) form a
    random strictly convex chain, with distinct random slopes and strictly
    increasing random chain steps; retries until the validators pass."""
    while True:
        slopes = sorted(Fraction(int(v), 997) for v in
                        rng.choice(np.arange(-span, span), n, replace=False))
        steps = sorted(Fraction(int(v), 1009) for v in
                       rng.choice(np.arange(-span, span), n - 1,
                                  replace=False))
        offset = Fraction(int(rng.integers(-span, span)), 1009)
        lines = [Line(slopes[0], offset)]
        for s0, s1, m in zip(slopes, slopes[1:], steps):
            offset += m * (s1 - s0)
            lines.append(Line(s1, offset))
        try:
            return verify_general_position(lines)
        except LineSetError:
            continue


def tied_gap_lines(rng: np.random.Generator, n: int) -> LineSet:
    """Lines with distinct integer slopes in a range about n wide, so many
    angle gaps are equal (slopes -1, 0, 1 give two gaps of tangent 1);
    retries until the validators pass."""
    k = n // 2 + 2
    while True:
        slopes = rng.choice(np.arange(-k, k + 1), n, replace=False)
        try:
            return verify_general_position(
                [Line(Fraction(int(s)), Fraction(int(b), 7))
                 for s, b in zip(slopes, rng.integers(-5000, 5000, n))])
        except LineSetError:
            continue


def column_key(key):
    """The column form that lineset.ranked_chains calls of a scalar pair
    key (i, j) -> Fraction | Ratio: on the id columns lo, hi it
    returns the numerators and the denominators of the keys of the pairs
    (lo[p], hi[p])."""
    def columns(lo, hi):
        keys = [key(i, j) for i, j in zip(lo.tolist(), hi.tolist())]
        return ([k.numerator for k in keys], [k.denominator for k in keys])
    return columns


def region_generators(ls: LineSet, cc, r):
    """The finite ends and the ray directions of the member segments of
    the region r, as region_hull collects them."""
    finite, dirs = [], []
    for i, seg_idx in lineset._region_members(ls, cc, r):
        f, d = lineset._segment_geometry(ls, i, seg_idx, cc.block)
        finite += f
        dirs += d
    return finite, dirs


def translate_hull(ls: LineSet, cc, r) -> RegionHull:
    """An unbounded region hull built as the convex hull of its polygon
    and the polygon's translates along the two extreme ray directions,
    whose run of polygon vertices is the chain: an oracle for
    region_hull, which reads the chain off the polygon's tangents.  None
    for a bounded region; raises region_hull's errors."""
    finite, dirs = region_generators(ls, cc, r)
    if not dirs:
        return None
    q = convex_hull(finite)
    poly = {v.homogeneous for v in q}
    d_right, d_left = lineset._extreme_directions(dirs)
    q = convex_hull([*q, *(Point(v.x + dx, v.y + dy) for v in q
                           for dx, dy in (d_left, d_right))])
    if len(q) < 3:
        raise LineSetError(f"degenerate (flat) region {r}")
    on_poly = [v.homogeneous in poly for v in q]
    k = next(k for k, f in enumerate(on_poly) if f and not on_poly[k - 1])
    chain = [v for v, f in zip(q[k:] + q[:k], on_poly[k:] + on_poly[:k])
             if f]
    sides = [HullSide(None, chain[0], d_left)]
    sides += [HullSide(u, v) for u, v in zip(chain, chain[1:])]
    sides.append(HullSide(chain[-1], None, d_right))
    return RegionHull(r, tuple(chain), tuple(sides), False)


def dualize_line(l: Line) -> Point:
    """y = a*x - b  ->  (a, b)."""
    return Point(l.slope, l.dual_offset)


def dualize_point(p: Point) -> Line:
    """(a, b)  ->  y = a*x - b.  Inverse of dualize_line."""
    return Line(p.x, p.y)


def mirrored(ls: LineSet) -> LineSet:
    """Reflect the dual points in the slope axis, Line(s, -b): a cup
    becomes a cap and a cap a cup."""
    return verify_general_position(
        [Line(l.slope, -l.dual_offset) for l in ls])


def path_tree(n: int) -> Tree:
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star_tree(n: int) -> Tree:
    return Tree(n, tuple((0, i) for i in range(1, n)))


def serialize_instance(ls: LineSet, t: Tree, asg) -> str:
    """The instance format's ``l``, ``e`` and, with an assignment, ``a``
    rows."""
    out = [serialize_lines(ls)]
    out += [f"e {u} {v}\n" for u, v in t.edges]
    if asg is not None:
        out += [f"a {v} {asg.line_of(v)}\n" for v in range(t.n)]
    return "".join(out)


def slope_of_degrees(deg: float) -> Fraction:
    """Rational slope close to tan(deg degrees), rounded at 1e-9."""
    return Fraction(round(math.tan(math.radians(deg)) * 10**9), 10**9)


def angle_lineset(degrees, cup: bool = False) -> LineSet:
    """Lines with the given angles, tangent to a parabola: offsets -s^2
    give a cap, +s^2 a cup."""
    lines = []
    for a in degrees:
        s = slope_of_degrees(a)
        lines.append(Line(s, s * s if cup else -s * s))
    return verify_general_position(lines)


def chain_with_margin(tail, a3, r, margin):
    """chain_from_parameters(tail, a3, r) with r3 moved so that the chain's
    relative margin (b1 - r3 - a3) / max(|b1 - r3|, a3, 1) is ``margin``
    to DPS digits (a3 >= 1 and |margin| < 1)."""
    cv = unstretch.chain_from_parameters(tail, a3, r)
    with mpmath.workdps(unstretch.DPS):
        a3, margin = cv.a[2], mpmath.mpf(margin)
        lhs = a3 / (1 - margin) if margin > 0 else a3 * (1 + margin)
        return unstretch.ChainValues(cv.alpha, cv.a, cv.b,
                                     (*cv.r[:2], cv.b[0] - lhs))


def criterion_5_chains():
    """Criterion 5's random forced-length chains, without end: five tail
    angles sorted descending in [0.02, 0.6], a3 in [0.1, 10] and r in
    [1e-6, 5], drawn in batches of 5000 from seed 105."""
    rng = np.random.default_rng(105)
    batch = 5000
    while True:
        tails = np.sort(rng.uniform(0.02, 0.6, size=(batch, 5)),
                        axis=1)[:, ::-1]
        a3s = rng.uniform(0.1, 10.0, size=batch)
        rs = rng.uniform(1e-6, 5.0, size=(batch, 3))
        with mpmath.workdps(unstretch.DPS):
            chains = []
            for row in range(batch):
                tail = [mpmath.mpf(float(x)) for x in tails[row]]
                alpha = (mpmath.pi - mpmath.fsum(tail), *tail)
                a3 = mpmath.mpf(float(a3s[row]))
                r = tuple(mpmath.mpf(float(x)) for x in rs[row])
                chains.append(unstretch.ChainValues(
                    alpha, (a3, a3, a3), (a3, a3, a3), r))
        yield from chains


def random_frame(rng: np.random.Generator, cup: bool):
    """Criterion 6's random six-line frame: angle gaps that each exceed the
    total of the earlier ones by 5 to 35 %, spanning less than 88 degrees,
    tangent to a parabola; redrawn until validate_frame accepts it.

    Every frame drawn has growing gaps, which is the doubling inequality
    of Variant.LOWER, so validate_frame returns Variant.LOWER for all of
    them: no frame whose gaps shrink (Variant.UPPER) is ever drawn."""
    while True:
        gaps = [float(rng.uniform(0.5, 1.5))]
        total = gaps[0]
        for _ in range(4):
            g = total * float(rng.uniform(1.05, 1.35))
            gaps.append(g)
            total += g
        if total >= 88.0:
            continue
        start = float(rng.uniform(-25.0, 5.0))
        degs = [start]
        for g in gaps:
            degs.append(degs[-1] + g)
        try:
            ls = angle_lineset(degs, cup=cup)
            return unstretch.validate_frame(ls, [1, 2, 3, 4, 5, 6])
        except (unstretch.FrameError, LineSetError):
            continue


def solve_every_edge(geo, t):
    """_FrameFloats._solve_edge of all three edges on every column of the
    (3, n) batch t: the (3, n) u rows, u meaningful where its edge is
    feasible, and each column's count of feasible edges.  The search runs
    later edges only on the columns earlier ones accept; this is the full
    count it is checked against."""
    u, ok = zip(*(geo._solve_edge(j, t) for j in (1, 2, 3)))
    return np.array(u), np.sum(ok, axis=0)


def checker_fixtures():
    """Criterion 7's drawings as (name, the violation kind the check must
    report or None for a crossing-free drawing, line set, tree,
    assignment, embedding)."""
    ls = verify_general_position(
        [Line(scalar(-1), scalar(0)), Line(scalar(0), scalar(-1)),
         Line(scalar(1), scalar(0)), Line(scalar(3), scalar(1))])
    t = path_tree(4)
    asg = Assignment((1, 3, 2, 4))

    def emb(*xs):
        return Embedding(tuple(Fraction(x) for x in xs))

    # consecutive edges share an endpoint, and that contact stays legal
    return [("crossing-free", None, ls, t, asg, emb(-2, 2, 0, Fraction(1, 3))),
            ("cross", ViolationKind.PROPER_CROSS, ls, t, asg,
             emb(-2, 2, 0, 2)),
            ("vertex-on-edge", ViolationKind.VERTEX_ON_EDGE, ls, t, asg,
             emb(-2, 2, 0, 1)),
            # v0 (-1,1) on l1, v1 (5,1) on l2, v2 (1,1) on l3, three lines
            # for three vertices
            ("overlap", ViolationKind.OVERLAP, ls.subset([1, 2, 3]),
             path_tree(3), Assignment((1, 2, 3)), emb(-1, 5, 1))]


DOUBLING_DEGREES = [0, 1, 2.1, 4.3, 8.8, 17.8]
# doubling gaps 3, 5, 9, 20, 53 spanning exactly a right angle: the extreme
# slopes are -1 and 1; ending at 44 degrees instead makes the span acute
RIGHT_SPAN_DEGREES = [-45, -42, -37, -28, -8, 45]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)

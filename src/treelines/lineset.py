"""Validated line collections: general position, slope order, candidate
positions on each line, cap/cup structure, color classes and the grid-like
region partition of a slope-sorted arrangement.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Hashable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .geometry import (
    Line,
    Point,
    PostconditionError,
    Ratio,
    Segment,
    at_infinity,
    by_parameter,
    clip_to_halfplanes,
    columns,
    convex_hull,
    cross,
    line_intersection,
    line_through,
    ratio_float,
    side,
)


class LineSetError(ValueError):
    pass


class DuplicateLine(LineSetError):
    def __init__(self, i: int, j: int):
        super().__init__(f"lines at input positions {i} and {j} coincide")
        self.pair = (i, j)


class ParallelPair(LineSetError):
    def __init__(self, i: int, j: int):
        super().__init__(f"lines at input positions {i} and {j} are parallel")
        self.pair = (i, j)


class ConcurrentTriple(LineSetError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"lines {i}, {j}, {k} meet in a single point")
        self.triple = (i, j, k)


class TooFew(LineSetError):
    pass


class OnIntersection(LineSetError):
    pass


class EmptyRegion(LineSetError):
    pass


class CapCup(enum.Enum):
    CAP = "cap"
    CUP = "cup"
    NEITHER = "neither"


class LineSet:
    """A general-position set of lines, slope-sorted with ids 1..n.

    Construct through :func:`verify_general_position`; instances are
    immutable and keep, when first asked for, each line's crossing order
    and candidate positions.  A set cut out by :meth:`subset` keeps in
    ``parent_ids[k]`` the id that its line k+1 has in the set it was cut
    from; other sets have ``parent_ids`` None.
    """

    def __init__(self, lines: Sequence[Line], _validated: bool = False,
                 parent_ids: Optional[Sequence[int]] = None):
        if not _validated:
            raise TypeError("build LineSets via verify_general_position()")
        self._lines: Tuple[Line, ...] = tuple(lines)
        # filled and read by intersection_order, keyed by line
        self._orders: Dict[int, Tuple[Tuple[int, Point], ...]] = {}
        # filled and read by candidate_positions, keyed (line, refine)
        self._candidates: Dict[Tuple[int, int], Tuple[Point, ...]] = {}
        self.parent_ids: Optional[Tuple[int, ...]] = (
            None if parent_ids is None else tuple(parent_ids))

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self):
        return iter(self._lines)

    @property
    def lines(self) -> Tuple[Line, ...]:
        return self._lines

    def line(self, line_id: int) -> Line:
        if not 1 <= line_id <= len(self._lines):
            raise LineSetError(f"no line with id {line_id}")
        return self._lines[line_id - 1]

    def intersection(self, i: int, j: int) -> Point:
        return line_intersection(self.line(i), self.line(j))

    def intersection_points(self) -> List[Point]:
        n = len(self)
        return [self.intersection(i, j)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def crossings_on(self, seg: Segment) -> List[Point]:
        """The arrangement points on the closed segment ``seg``, in order
        from ``seg.p``, in O(n).  With a and b a line's side values at
        seg.p and seg.q over one common denominator, a line that does not
        have them of one strict sign meets the segment at t = a/(a - b),
        or contains it when a = b = 0.  Along a line every other line's
        crossing is an arrangement point; otherwise the points are the t
        that two lines share, never three in general position.  Each t is
        keyed by its integers in lowest terms, denominator > 0, which are
        canonical, and only the points found are sorted, by t exactly."""
        p, q = seg.p.homogeneous, seg.q.homogeneous
        along = None
        hits: Dict[Tuple[int, int], int] = {}
        found: List[Tuple[Tuple[int, int], int, int]] = []
        for l in self._lines:
            h = l.homogeneous
            a, b = side(h, p) * q[2], side(h, q) * p[2]
            if a == b == 0:
                along = l.id
            elif a * b <= 0:
                g = math.gcd(a, b) if a > b else -math.gcd(a, b)
                t = a // g, (a - b) // g
                i = hits.setdefault(t, l.id)
                if i != l.id:
                    found.append((t, i, l.id))
        if along is not None:
            found = [(t, along, j) for t, j in hits.items()]
        found.sort(key=lambda f: by_parameter(f[0]))
        return [self.intersection(i, j) for _, i, j in found]

    def subset(self, ids: Sequence[int]) -> "LineSet":
        """A new LineSet of the selected lines, renumbered in slope order;
        its ``parent_ids`` are the selected ids (ids are slope ranks, so
        they come out sorted)."""
        picked = sorted(ids)
        return LineSet([self.line(i).with_id(k + 1)
                        for k, i in enumerate(picked)],
                       _validated=True, parent_ids=picked)


def verify_general_position(lines: Sequence[Line]) -> LineSet:
    """Sort by slope and verify no duplicates, no parallels, no three
    concurrent.  Errors name the violating input positions (0-based)."""
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i].slope == lines[j].slope:
                if lines[i].dual_offset == lines[j].dual_offset:
                    raise DuplicateLine(i, j)
                raise ParallelPair(i, j)
    # keyed by the crossing's reduced numerators and denominators, which
    # are canonical, so the key is one-to-one on points
    seen: Dict[Tuple[int, int, int, int], Tuple[int, int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = line_intersection(lines[i], lines[j])
            x, y = pt.x, pt.y
            p = x.numerator, x.denominator, y.numerator, y.denominator
            if p in seen:
                ids = sorted(set(seen[p]) | {i, j})
                raise ConcurrentTriple(*ids[:3])
            seen[p] = (i, j)
    ordered = sorted(lines, key=lambda l: l.slope)
    return LineSet([l.with_id(k + 1) for k, l in enumerate(ordered)],
                   _validated=True)


def intersection_order(ls: LineSet, i: int) -> Tuple[Tuple[int, Point], ...]:
    """The n-1 intersection points on line i sorted by x ascending, each
    with the id of the partner line.  Sorted once per line set and line,
    and kept on the line set."""
    out = ls._orders.get(i)
    if out is None:
        entries = [(j, ls.intersection(i, j))
                   for j in range(1, len(ls) + 1) if j != i]
        entries.sort(key=lambda e: e[1].x)
        out = ls._orders[i] = tuple(entries)
    return out


def candidate_positions(ls: LineSet, line_id: int,
                        refine: int) -> Tuple[Point, ...]:
    """Discretized positions on a line, as its points: ``refine`` equally
    spaced rational abscissas strictly inside each finite interval between
    consecutive intersection abscissas, plus one sentinel beyond each
    extreme; a line that crosses no other has the single abscissa 0.
    Never returns a breakpoint.  The points are built once per line set,
    line and ``refine``, and kept on the line set."""
    if refine < 1:
        raise LineSetError("refine must be >= 1")
    key = (line_id, refine)
    out = ls._candidates.get(key)
    if out is None:
        xs = [pt.x for _, pt in intersection_order(ls, line_id)]
        cand: List[Fraction] = [Fraction(0)]
        if xs:
            cand = [xs[0] - 1]
            for x0, x1 in zip(xs, xs[1:]):
                step = (x1 - x0) / (refine + 1)
                cand.extend(x0 + k * step for k in range(1, refine + 1))
            cand.append(xs[-1] + 1)
        l = ls.line(line_id)
        out = ls._candidates[key] = tuple(l.point_at(x) for x in cand)
    return out


def classify_cap_cup(ls: LineSet) -> CapCup:
    """Cup iff the crossings of consecutive lines run left to right,
    x_12 < x_23 < ... < x_{n-1,n}, where x_ij is the abscissa of the
    crossing of lines i and j (:func:`_abscissa`); cap iff they run right
    to left.

    x_ij = (b_j - b_i)/(s_j - s_i) is the slope between the dual points
    (s_i, b_i) and (s_j, b_j), and the dual chain is sorted by slope.  So
    increasing consecutive x make it turn left at every inner point: it is
    convex, and x_ij < x_ik < x_jk for every i < j < k, which orders the
    crossings along every line by the partner's id, left to right (the
    full definition of a cup).  Conversely that order on line i + 1 puts
    x_{i,i+1} before x_{i+1,i+2}.  A cap is the mirror image.  In general
    position consecutive abscissas differ, since equal ones would make
    three lines concurrent."""
    n = len(ls)
    if n < 3:
        raise TooFew("cap/cup needs at least 3 lines")
    hs = columns(l.homogeneous for l in ls.lines)
    X, W = _abscissa(hs[:, :-1], hs[:, 1:])
    # X[i]/W[i] < X[i+1]/W[i+1] by cross-multiplying, as every W > 0
    left, right = X[:-1] * W[1:], X[1:] * W[:-1]
    if (left < right).all():
        return CapCup.CUP
    if (left > right).all():
        return CapCup.CAP
    return CapCup.NEITHER


def _abscissa(g, h) -> Ratio:
    """The abscissa X/W of the crossing of two non-parallel lines, given
    as their triples ``Line.homogeneous``: the meet ``cross(g, h)`` with
    its sign normalised so that W > 0, unreduced.  On the columns of
    :func:`geometry.columns` it gives a column of each, pair by pair."""
    X, _, W = cross(g, h)
    # the sign of W, +1 or -1: on columns a machine-integer column, exact
    # as it only flips the signs of the object columns
    s = (W > 0) * 2 - 1
    return Ratio(s * X, s * W)


class ChainTable(NamedTuple):
    """A label's chain table over the ids 1..n, flat over the pair codes
    c = j*base + k, base = n + 1: ``length[c]`` is the length of the
    longest chain ending with j, k, or 0 when no triple extends the pair,
    and ``pred[c]`` its smallest predecessor among the longest, 0 with no
    entry.  Each list has base**2 entries.  ``top`` is the largest
    length, and ``ends`` the codes whose length is ``top``, ascending."""

    base: int
    length: List[int]
    pred: List[int]
    top: int
    ends: List[int]

    @classmethod
    def scanned(cls, base: int, length: List[int], pred: List[int]):
        """The table of the two lists, its top and ends read by a scan."""
        top = max(length)
        return cls(base, length, pred, top,
                   [c for c, m in enumerate(length) if m == top])

    def chain(self, c: int) -> List[int]:
        """The chain that ends with the pair of code c, followed back
        through the predecessors."""
        j, k = divmod(c, self.base)
        seq = [k, j]
        while self.length[c]:
            i = self.pred[c]
            c = i * self.base + seq[-1]
            seq.append(i)
        seq.reverse()
        return seq


def ranked_chains(n: int,
                  key: Callable[[np.ndarray, np.ndarray],
                                Tuple[Sequence[int], Sequence[int]]],
                  lower: Hashable, upper: Hashable
                  ) -> Dict[Hashable, ChainTable]:
    """The chain tables of the labelling that gives a triple i < j < k of
    the ids 1..n the label ``lower`` when key(j, k) < key(i, j) and
    ``upper`` otherwise, for a rational pair key.

    Key contract: ``key`` is called once, as key(lo, hi), on the id
    columns of all C(n, 2) pairs (lo[p], hi[p]), lo[p] < hi[p], and
    returns one column of integer numerators and one of denominators > 0,
    the key of pair p being their quotient at p, which need not be in
    lowest terms: a ``geometry.Ratio`` of two numpy object columns, as
    ``gap_ratio`` and ``_abscissa`` give on the columns of
    ``geometry.columns``, or any two sequences of ints.  ``lo`` and ``hi``
    are numpy machine-integer arrays, meant only to index the key's own
    columns: arithmetic on them is not exact.  Object columns hold Python
    ints, so the keys are exact at any size.  Keys are compared by value,
    so 1/2 and 2/4 tie.

    Tie rule: the pairs (i, j), i < j, are sorted stably by the float
    numerator/denominator (``geometry.ratio_float``, +-inf beyond float
    range), and only pairs that share a float are sorted again, stably, by
    their exact values.  That is the stable sort by (float, exact value): pairs
    with equal keys keep the order of their larger id.

    Each label is one sweep over the sorted pairs in which pair (j, k)
    reads the best chain ending at j, the longest over the pairs (i, j)
    swept so far with the smallest i among the longest, and offers its
    own chain as k's.  Ascending, those (i, j) are the
    ones with key(i, j) <= key(j, k), ties included as they end at j < k:
    the ``upper`` predecessors; along the reversed list, the ``lower``
    ones, key(i, j) > key(j, k).  So one sort and O(n^2) steps give the
    tables of the O(n^3) programme of Chvatal and Klincsek (1980): each
    pair's longest chain of either label and, among those, its smallest
    predecessor, as a :class:`ChainTable` over the pair codes.  Each pair
    is written once, so the sweep also keeps the top length and the codes
    that reach it.  A label with no chain of three gets no table.
    """
    # the pairs by larger id, then smaller
    hi, lo = (c + 1 for c in np.tril_indices(n, -1))
    # as lists of Python ints, whatever sequences the key returns
    num, den = (np.asarray(c, dtype=object).tolist() for c in key(lo, hi))
    rank = list(map(ratio_float, num, den))
    keys = np.array(rank)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        # some pairs share a float: order each such run exactly
        exact = []
        for _, run in itertools.groupby(order.tolist(),
                                        key=rank.__getitem__):
            run = list(run)
            if len(run) > 1:
                run.sort(key=lambda x: Fraction(num[x], den[x]))
            exact += run
        order = exact
    lo, hi = lo[order].tolist(), hi[order].tolist()
    base = n + 1
    tables: Dict[Hashable, ChainTable] = {}
    for lab, sweep in ((upper, zip(lo, hi)),
                       (lower, zip(reversed(lo), reversed(hi)))):
        length, pred = [0] * base ** 2, [0] * base ** 2
        # the longest chain ending at each id so far and its smallest
        # predecessor; an id alone is a chain of length 1
        best_length, best_pred = [1] * base, [0] * base
        top, ends = 3, []
        for j, k in sweep:
            m = best_length[j] + 1
            if m > 2:
                c = j * base + k
                length[c], pred[c] = m, best_pred[j]
                if m >= top:
                    if m > top:
                        top, ends = m, []
                    ends.append(c)
            if m > best_length[k] or m == best_length[k] and j < best_pred[k]:
                best_length[k], best_pred[k] = m, j
        if ends:
            ends.sort()
            tables[lab] = ChainTable(base, length, pred, top, ends)
    return tables


def labelled_chains(n: int, label: Callable[[int, int, int], Hashable]
                    ) -> Dict[Hashable, ChainTable]:
    """The chain tables of an arbitrary labelling of the triples of the
    ids 1..n, equal to those of :func:`ranked_chains`, by the O(n^3)
    dynamic program of Chvatal and Klincsek (1980), which labels each
    triple i < j < k once.  A triple finds its label's lists by a scan of
    the few labels seen so far, which hashes no label: the hash of an
    ``enum.Enum`` member such as ``ramsey.Color`` runs in Python.  A pair
    may be written more than once, so each table's top and ends are read
    at the end, by one scan."""
    base = n + 1
    labels: List[Hashable] = []
    lists: List[Tuple[List[int], List[int]]] = []
    for j in range(2, n + 1):
        for k in range(j + 1, n + 1):
            c = j * base + k
            for i in range(1, j):
                lab = label(i, j, k)
                try:
                    length, pred = lists[labels.index(lab)]
                except ValueError:
                    length, pred = [0] * base ** 2, [0] * base ** 2
                    labels.append(lab)
                    lists.append((length, pred))
                # a pair (i, j) with no entry is a chain of two
                m = (length[i * base + j] or 2) + 1
                if m > length[c]:
                    length[c], pred[c] = m, i
    return {lab: ChainTable.scanned(base, *l)
            for lab, l in zip(labels, lists)}


def longest_cap_cup(ls: LineSet) -> Tuple[CapCup, LineSet]:
    """Largest subset forming a cap or cup: the longest chain of ids whose
    consecutive crossings x_ij, x_jk (the exact abscissas of
    :func:`_abscissa`) strictly decrease, for a cap, or increase, for a
    cup (see :func:`classify_cap_cup`).  Ties go to the cap, then to the
    smallest final pair of ids."""
    n = len(ls)
    if n < 3:
        raise TooFew("need at least 3 lines")
    hs = columns(l.homogeneous for l in ls.lines)
    tables = ranked_chains(
        n, lambda lo, hi: _abscissa(hs[:, lo - 1], hs[:, hi - 1]), -1, +1)
    # the longest chain of either label, the cap label -1 first on ties,
    # ending with its smallest pair: pair codes run in (j, k) order
    _, lab = min((-t.top, lab) for lab, t in tables.items())
    table = tables[lab]
    kind = CapCup.CAP if lab == -1 else CapCup.CUP
    sub = ls.subset(table.chain(table.ends[0]))
    if classify_cap_cup(sub) != kind:
        raise PostconditionError(f"extracted {kind.value} fails the "
                                 f"cap/cup check")
    return kind, sub


@dataclass(frozen=True)
class ColorClasses:
    """Partition of the slope-sorted ids 1..n into c consecutive blocks."""

    c: int
    n: int

    def __post_init__(self):
        if self.c < 1 or self.n % self.c != 0:
            raise LineSetError(f"c={self.c} must divide n={self.n}")

    @property
    def block(self) -> int:
        return self.n // self.c

    def class_of(self, line_id: int) -> int:
        if not 1 <= line_id <= self.n:
            raise LineSetError(f"no line with id {line_id}")
        return (line_id - 1) // self.block + 1

    def ids_of_class(self, c_prime: int) -> range:
        if not 1 <= c_prime <= self.c:
            raise LineSetError(f"no class {c_prime}")
        return range((c_prime - 1) * self.block + 1, c_prime * self.block + 1)


@dataclass(frozen=True, order=True)
class RegionIndex:
    a: int
    b: int

    def __post_init__(self):
        if not 1 <= self.a <= self.b:
            raise LineSetError(f"bad region index ({self.a},{self.b})")


def all_region_indices(cc: ColorClasses) -> List[RegionIndex]:
    return [RegionIndex(a, b)
            for a in range(1, cc.c + 1) for b in range(a, cc.c + 1)]


def _require_sized(ls: LineSet, cc: ColorClasses) -> None:
    if cc.n != len(ls):
        raise LineSetError("color classes sized for a different line set")


def segment_index_of(ls: LineSet, cc: ColorClasses, i: int,
                     x: Fraction) -> int:
    """Which of the c slope-block segments of line i contains the point at
    parameter x.  Errors out if x hits an intersection point."""
    _require_sized(ls, cc)
    xs = [pt.x for _, pt in intersection_order(ls, i)]
    if x in xs:
        raise OnIntersection(f"x={x} is an intersection point on line {i}")
    below = sum(1 for v in xs if v < x)
    return below // cc.block + 1


def region_of(ls: LineSet, cc: ColorClasses, i: int,
              x: Fraction) -> RegionIndex:
    """The unique region R_{a,b} whose open segment contains (x, l_i(x))."""
    seg = segment_index_of(ls, cc, i, x)
    ci = cc.class_of(i)
    return RegionIndex(min(ci, seg), max(ci, seg))


@dataclass(frozen=True)
class HullSide:
    """One side of a region hull: a finite edge or an infinite ray.

    ``start``/``end`` are the finite endpoints when present; for a ray side
    exactly one of them is None and ``direction`` points to infinity.  The
    clip and ``RegionHull.contains`` read the side's ``halfplane``: its
    directed line as a primitive integer triple (A, B, C), the hull on
    A*x + B*y + C >= 0 (see ``geometry.line_through``), where a missing end
    is the point at infinity along ``direction``, the one a ray with no
    ``start`` comes from.  It is kept once, at construction, outside the
    compared fields."""

    start: Optional[Point]
    end: Optional[Point]
    direction: Optional[Tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        ends = [at_infinity(*self.direction) if p is None else p.homogeneous
                for p in (self.start, self.end)]
        object.__setattr__(self, "halfplane", line_through(*ends))


class UnboundedHullError(LineSetError):
    pass


@dataclass(frozen=True)
class RegionHull:
    """Closure of the convex hull of a region: a convex polyhedron, possibly
    unbounded, with its sides labeled 1..m counter-clockwise starting just
    after the lexicographically smallest vertex (label 0 means "no side")."""

    index: RegionIndex
    vertices: Tuple[Point, ...]
    sides: Tuple[HullSide, ...]
    bounded: bool

    @property
    def side_count(self) -> int:
        return len(self.sides)

    def contains(self, p: Point) -> bool:
        h = p.homogeneous
        return all(side(s.halfplane, h) >= 0 for s in self.sides)

    def clip_parameters(
        self, seg: Segment
    ) -> Optional[Tuple[Tuple[int, int], Tuple[int, int], int, int]]:
        """Parameter interval [t0, t1] of seg (p at t=0, q at t=1) inside the
        closed hull, each t as an integer pair (n, d) with d > 0, and the
        labels of the sides it enters and leaves by (0 at an end of seg),
        or None if that is empty or a single point."""
        iv = clip_to_halfplanes((s.halfplane for s in self.sides),
                                seg.p.homogeneous, seg.q.homogeneous)
        if iv is None:
            return None
        (n0, d0), (n1, d1), k0, k1 = iv
        if n0 * d1 == n1 * d0:
            return None
        return ((n0, d0), (n1, d1),
                0 if k0 is None else k0 + 1, 0 if k1 is None else k1 + 1)


def _region_members(ls: LineSet, cc: ColorClasses,
                    r: RegionIndex) -> List[Tuple[int, int]]:
    """(line id, segment index) pairs whose open segments make up R_{a,b}."""
    if r.b > cc.c:
        raise EmptyRegion(f"region {r} out of range for c={cc.c}")
    members = [(i, r.a) for i in cc.ids_of_class(r.b)]
    if r.a != r.b:
        members += [(i, r.b) for i in cc.ids_of_class(r.a)]
    return members


def _segment_geometry(ls: LineSet, i: int, seg_idx: int, block: int):
    """Finite endpoints and ray directions of segment seg_idx of line i;
    with c >= 2 each ray starts at a finite endpoint."""
    pts = [pt for _, pt in intersection_order(ls, i)]
    lo = (seg_idx - 1) * block     # 0 means the -infinity sentinel
    hi = seg_idx * block           # n means the +infinity sentinel
    slope = ls.line(i).slope
    finite: List[Point] = []
    dirs: List[Tuple[Fraction, Fraction]] = []
    if lo == 0:
        dirs.append((Fraction(-1), -slope))
    else:
        finite.append(pts[lo - 1])
    if hi >= len(ls):
        dirs.append((Fraction(1), slope))
    else:
        finite.append(pts[hi - 1])
    return finite, dirs


def _extreme_directions(dirs: List[Tuple[Fraction, Fraction]]):
    """The two extreme rays of the convex cone of the given directions.
    Requires the cone to fit in an open halfplane."""
    # each direction as its point at infinity, an integer triple: the last
    # coordinate of the cross product of two is the 2-D cross product of
    # the directions times a positive factor
    uniq = {d: at_infinity(*d) for d in dirs}
    d_right = d_left = None
    for d, u in uniq.items():
        if all(cross(u, v)[2] >= 0 for v in uniq.values()):
            d_right = d
        if all(cross(u, v)[2] <= 0 for v in uniq.values()):
            d_left = d
    if d_right is None or d_left is None:
        raise UnboundedHullError("direction cone spans a halfplane or more")
    if len(uniq) > 1 and cross(uniq[d_right], uniq[d_left])[2] < 0:
        raise UnboundedHullError("direction cone spans more than pi")
    return d_right, d_left


def region_hull(ls: LineSet, cc: ColorClasses, r: RegionIndex) -> RegionHull:
    """Closure of the convex hull of R_{a,b}: a polytope plus the recession
    cone of the unbounded member segments.

    When ``ls`` is a cup, every region hull has at most five sides.  The
    bound needs that hypothesis: caps and sets that are neither reach six
    or more sides (six already at n=6, c=3).  On a cap the positional
    segment index of :func:`segment_index_of` runs against the partner
    ids; whether the paper counts segments by position or in the direction
    of increasing partner id is open.
    """
    _require_sized(ls, cc)
    if cc.c < 2:
        raise LineSetError("region hulls need at least 2 color classes")
    finite: List[Point] = []
    dirs: List[Tuple[Fraction, Fraction]] = []
    for i, seg_idx in _region_members(ls, cc, r):
        f, d = _segment_geometry(ls, i, seg_idx, cc.block)
        finite += f
        dirs += d

    q = convex_hull(finite)     # starts at the smallest vertex
    if not dirs:
        if len(q) < 3:
            raise LineSetError(f"degenerate (flat) region {r}")
        return RegionHull(r, tuple(q), tuple(
            HullSide(u, v) for u, v in zip(q, q[1:] + q[:1])), True)

    # an unbounded closure is the polygon q plus the cone of d_left and
    # d_right: q's chain between its tangents along the two directions
    d_right, d_left = _extreme_directions(dirs)
    left, right = at_infinity(*d_left), at_infinity(*d_right)
    chain = _tangent_chain(q, left, right)
    if len(chain) == 1 and cross(left, right)[2] == 0:
        raise LineSetError(f"degenerate (flat) region {r}")
    # CCW boundary: in from infinity along -d_left, the chain, out along
    # +d_right
    sides: List[HullSide] = [HullSide(None, chain[0], d_left)]
    sides += [HullSide(u, v) for u, v in zip(chain, chain[1:])]
    sides.append(HullSide(chain[-1], None, d_right))
    hull = RegionHull(r, tuple(chain), tuple(sides), False)
    probe = Point(chain[0].x + d_right[0] + d_left[0],
                  chain[0].y + d_right[1] + d_left[1])
    if not hull.contains(probe):
        raise UnboundedHullError(f"inconsistent unbounded hull for {r}")
    return hull


def _tangent_chain(q: List[Point], left: Tuple[int, int, int],
                   right: Tuple[int, int, int]) -> List[Point]:
    """The run of the convex polygon q (counter-clockwise) on the boundary
    of q plus the cone from d_right counter-clockwise to d_left, given as
    points at infinity: from where a line along d_left supports q to where
    one along d_right does, without a vertex collinear with a ray.  The
    edges turn counter-clockwise around q; the run starts where they turn
    into the half-turn (-d_left, d_left] and ends where they turn out of
    [-d_right, d_right)."""
    m = len(q)
    if m == 1:
        return q
    hs = [v.homogeneous for v in q]
    edges = [cross(u, v) for u, v in zip(hs, hs[1:] + hs[:1])]

    def turned(u, w):
        # per edge: whether u lies to its left (side has the sign of the
        # 2-D cross product), or, along a parallel edge, w does
        return [(side(e, u) or side(e, w)) > 0 for e in edges]

    # w: d_left turned a right angle counter-clockwise, d_right clockwise
    a = turned(left, (-left[1], left[0], 0))
    b = turned(right, (right[1], -right[0], 0))
    first = next(k for k in range(m) if a[k] and not a[k - 1])
    last = next(k for k in range(m) if b[k - 1] and not b[k])
    if last < first:
        last += m
    return [q[k % m] for k in range(first, last + 1)]

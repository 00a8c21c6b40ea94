"""Tree embeddings on line arrangements: rooted trees, vertex-to-line
assignments, the exact crossing-free checker, a semi-decision solver,
universality scans, and the path descriptor machinery (combinatorial types,
color types, entry points and doors).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    DegenerateContact,
    Line,
    Point,
    PostconditionError,
    Segment,
    SegmentRelation,
    by_parameter,
    convex_hull,
    on_segment,
    segments_intersect,
)
from .lineset import (
    ColorClasses,
    LineSet,
    RegionHull,
    RegionIndex,
    all_region_indices,
    candidate_positions,
    intersection_order,
    region_hull,
    region_of,
)


class EmbedError(ValueError):
    pass


class SizeMismatch(EmbedError):
    pass


class TooLarge(EmbedError):
    pass


class NotAPath(EmbedError):
    pass


class NonUniform(EmbedError):
    pass


class DivisibilityError(EmbedError):
    pass


@dataclass(frozen=True)
class Tree:
    """A tree on vertices 0..n-1 rooted at vertex 0, with edges directed
    away from the root.  Kept at construction, outside the compared
    fields: ``parent``, each non-root vertex's parent as a read-only map,
    and ``order``, the vertices level by level from the root, each level
    by id, so every parent comes before its children."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise EmbedError("root outside vertex range")
        if len(self.edges) != self.n - 1:
            raise EmbedError(f"a tree on {self.n} vertices needs "
                             f"{self.n - 1} edges")
        parent: Dict[int, int] = {}
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise EmbedError(f"edge ({u},{v}) outside vertex range")
            if v in parent or v == 0:
                raise EmbedError(f"vertex {v} has two parents or is the root")
            parent[v] = u
        children = self.children_of()
        order, level = [], [0]
        while level:
            order += level
            level = sorted(w for v in level for w in children[v])
        # n-1 edges with unique child endpoints: connectivity is equivalent
        # to the search from the root reaching every vertex (it ends, since
        # no vertex has two parents and the root has none)
        if len(order) != self.n:
            raise EmbedError("edges do not form a tree")
        object.__setattr__(self, "parent", MappingProxyType(parent))
        object.__setattr__(self, "order", tuple(order))

    def children_of(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            out[u].append(v)
        return out


@dataclass(frozen=True)
class Assignment:
    """Bijection from tree vertices to line ids."""

    iota: Tuple[int, ...]    # iota[v] = line id of vertex v

    def line_of(self, v: int) -> int:
        return self.iota[v]

    def check_bijection(self, n: int) -> None:
        if sorted(self.iota) != list(range(1, n + 1)):
            raise SizeMismatch("assignment is not a bijection onto the "
                               "line ids")


@dataclass(frozen=True)
class Embedding:
    """Vertex x-parameters; the point of v is (x, iota(v) evaluated at x)."""

    pos: Tuple[Fraction, ...]

    def point_of(self, ls: LineSet, asg: Assignment, v: int) -> Point:
        return ls.line(asg.line_of(v)).point_at(self.pos[v])


class ViolationKind(enum.Enum):
    PROPER_CROSS = "proper_cross"
    OVERLAP = "overlap"
    TOUCH = "touch"
    VERTEX_ON_EDGE = "vertex_on_edge"
    COINCIDENT_VERTICES = "coincident_vertices"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    witness: Tuple[int, ...]    # vertex or edge-index ids involved


@dataclass(frozen=True)
class CheckReport:
    crossing_free: bool
    violations: Tuple[Violation, ...]
    warnings: Tuple[str, ...]


def check_embedding(ls: LineSet, t: Tree, asg: Assignment,
                    emb: Embedding) -> CheckReport:
    """Exact crossing-free verdict: the ``_violations`` of the drawing.
    Vertices sitting on arrangement intersection points, or edges passing
    through one, are flagged as warnings (they break the standing
    perturbation assumptions without making the drawing invalid).  A
    vertex lies on its own line, so it sits on an arrangement point iff a
    second line passes through it."""
    if len(ls) != t.n:
        raise SizeMismatch(f"{len(ls)} lines for a tree on {t.n} vertices")
    asg.check_bijection(t.n)
    if len(emb.pos) != t.n:
        raise SizeMismatch("embedding size differs from the tree")
    pts = [emb.point_of(ls, asg, v) for v in range(t.n)]
    drawn = drawn_edges(pts, t.edges)
    violations = _violations(pts, drawn)
    warnings = [f"vertex {v} sits on an arrangement intersection point"
                for v, p in enumerate(pts)
                if any(l.contains(p) for l in ls if l.id != asg.line_of(v))]
    for e, s in drawn:
        if any(q not in (s.p, s.q) for q in ls.crossings_on(s)):
            warnings.append(f"edge {e} passes through an arrangement "
                            f"intersection point")
    return CheckReport(not violations, violations, tuple(warnings))


def drawn_edges(pts: Sequence[Point], edges: Sequence[Tuple[int, int]]
                ) -> List[Tuple[Tuple[int, int], Segment]]:
    """The edges of positive length, in order, each with its segment."""
    return [(e, Segment(pts[e[0]], pts[e[1]])) for e in edges
            if pts[e[0]].homogeneous != pts[e[1]].homogeneous]


def _violations(pts: Sequence[Point],
                drawn: Sequence[Tuple[Tuple[int, int], Segment]]
                ) -> Tuple[Violation, ...]:
    """Coincident vertices, contacts between edges, then vertices on edges
    of the straight-line tree drawing with vertex v at ``pts[v]`` and its
    edges of positive length, each with its segment, in ``drawn`` (the
    checker's ``drawn_edges``, or the solver's placed segments).  The
    relative interior of every edge must avoid every other edge and every
    vertex point; tree-adjacent edges may meet only at their shared
    endpoint.  Edge witnesses index ``drawn``."""
    violations: List[Violation] = []
    seen: Dict[Point, int] = {}
    for v, p in enumerate(pts):
        first = seen.setdefault(p, v)
        if first != v:
            violations.append(Violation(ViolationKind.COINCIDENT_VERTICES,
                                        (first, v)))

    edge_list = [e for e, _ in drawn]
    segs = [s for _, s in drawn]

    for a in range(len(segs)):
        for b in range(a + 1, len(segs)):
            kind = _contact(segs[a], segs[b],
                            not set(edge_list[a]).isdisjoint(edge_list[b]))
            if kind is not None:
                violations.append(Violation(kind, (a, b)))

    for v, p in enumerate(pts):
        for k, (u, w) in enumerate(edge_list):
            if v not in (u, w) and on_segment(segs[k], p):
                violations.append(Violation(ViolationKind.VERTEX_ON_EDGE,
                                            (v, k)))
    return tuple(violations)


def _contact(s1: Segment, s2: Segment,
             shared: bool) -> Optional[ViolationKind]:
    """The violation two tree edges make, or None when they are disjoint or
    touch endpoint to endpoint while sharing a tree vertex (``shared``)."""
    rel = segments_intersect(s1, s2)
    if rel == SegmentRelation.DISJOINT or \
            (rel == SegmentRelation.TOUCH_ENDPOINT_ENDPOINT and shared):
        return None
    if rel == SegmentRelation.PROPER_CROSS:
        return ViolationKind.PROPER_CROSS
    if rel == SegmentRelation.OVERLAP:
        return ViolationKind.OVERLAP
    return ViolationKind.TOUCH


@dataclass(frozen=True)
class SolveResult:
    found: bool
    embedding: Optional[Embedding]
    nodes: int
    restarts: int


class _Placer:
    """Incremental embedding state with exact conflict checks; ``points``
    holds each placed vertex's point in placement order.

    Callers place parents first, so every placed vertex other than a lone
    root ends a placed edge.  ``segs`` maps each placed non-root vertex, in
    placement order, to its edge's segment from the parent's placed point
    to its own: the drawing ``solve`` hands to ``_violations``.  Each
    segment keeps its ``Segment.line``, so a contact test reads integer
    side values of the new edge's ends and the placed edge's ends.  Callers
    offer only points that no second line passes through, as ``solve``'s
    grid and restarts do, so a new point is never a placed one."""

    def __init__(self, t: Tree):
        self.parent = t.parent
        self.points: Dict[int, Point] = {}
        self.segs: Dict[int, Segment] = {}

    def place(self, v: int, p: Point) -> bool:
        """Put vertex v at the point p, on its line, unless its edge to the
        parent would meet a placed edge; returns whether it did."""
        if v in self.parent:
            # p differs from every placed point, each of which ends a placed
            # edge: p on a placed edge or a placed vertex on the new edge is
            # a contact, and an endpoint touch is at the shared parent point
            new_seg = Segment(self.points[self.parent[v]], p)
            for s in self.segs.values():
                if _contact(new_seg, s, True) is not None:
                    return False
            self.segs[v] = new_seg
        self.points[v] = p
        return True

    def unplace(self, v: int) -> None:
        del self.points[v]
        if v in self.parent:
            del self.segs[v]


def solve(ls: LineSet, t: Tree, asg: Assignment, refine: int,
          budget: int, seed: int) -> SolveResult:
    """Search for a crossing-free embedding respecting the assignment.

    Backtracking over the vertices in ``Tree.order``, so every parent
    comes before its children, through the candidate points of
    ``candidate_positions`` (kept on the line set, so every bijection of a
    scan reuses them), then up to ``budget`` randomized continuous
    restarts.  ``budget`` bounds only the restarts: the backtracking has no
    node limit, and on some 12-vertex instances it runs for more than a
    minute whatever the budget.  The found points pass the checker's exact
    ``_violations`` scan, run on the segments the placer built for them,
    not on new ones: one per non-root vertex, ending, by identity, at the
    returned points of the vertex's parent in the tree and of the vertex.
    Otherwise PostconditionError is raised; NotFound only reports budget
    exhaustion, never non-embeddability."""
    if len(ls) != t.n:
        raise SizeMismatch(f"{len(ls)} lines for a tree on {t.n} vertices")
    asg.check_bijection(t.n)
    cand = {v: candidate_positions(ls, asg.line_of(v), refine)
            for v in range(t.n)}
    placer = _Placer(t)
    order = t.order
    nodes = 0

    def backtrack(k: int) -> bool:
        nonlocal nodes
        if k == len(order):
            return True
        v = order[k]
        for p in cand[v]:
            nodes += 1
            if not placer.place(v, p):
                continue
            if backtrack(k + 1):
                return True
            placer.unplace(v)
        return False

    found = backtrack(0)
    restarts = 0
    if not found:
        rng = np.random.default_rng(seed)
        lines = {v: ls.line(asg.line_of(v)) for v in range(t.n)}
        breakpoints = {v: [pt.x for _, pt in
                           intersection_order(ls, asg.line_of(v))]
                       for v in range(t.n)}
        while not found and restarts < budget:
            restarts += 1
            placer = _Placer(t)
            found = _random_attempt(placer, order, lines, breakpoints, rng)

    if not found:
        return SolveResult(False, None, nodes, restarts)
    pts = [placer.points[v] for v in range(t.n)]
    # the scan reads the placer's own segments, so none is built twice:
    # one per non-root vertex, from its tree parent's point to its own
    parent = t.parent
    if placer.segs.keys() != parent.keys() or any(
            s.p is not pts[parent[v]] or s.q is not pts[v]
            for v, s in placer.segs.items()):
        raise PostconditionError("solver's segments are not the drawing of "
                                 "its points")
    drawn = [((parent[v], v), s) for v, s in placer.segs.items()]
    if _violations(pts, drawn):
        raise PostconditionError("solver produced an invalid embedding")
    return SolveResult(True, Embedding(tuple(p.x for p in pts)), nodes,
                       restarts)


_DENOM = 9973      # prime denominator keeps random rationals off breakpoints


def _random_attempt(placer: _Placer, order: Sequence[int],
                    lines: Dict[int, Line],
                    breakpoints: Dict[int, List[Fraction]], rng) -> bool:
    """One greedy randomized pass from an empty placer: sample each vertex
    position on its line in order, with a few retries per vertex before
    giving up on the pass."""
    for v in order:
        bps = breakpoints[v]
        lo, hi = bps[0] - 2, bps[-1] + 2
        for _ in range(20):
            num = int(rng.integers(0, _DENOM * 1000))
            x = lo + (hi - lo) * Fraction(num, _DENOM * 1000)
            if x in bps:
                continue
            if placer.place(v, lines[v].point_at(x)):
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ScanReport:
    total: int
    found: Tuple[Tuple[int, ...], ...]
    candidates: Tuple[Tuple[int, ...], ...]    # NotFound iotas, NOT proofs

    @property
    def all_found(self) -> bool:
        return not self.candidates


def scan_universality(ls: LineSet, t: Tree, refine: int, budget: int,
                      seed: int = 0, force: bool = False) -> ScanReport:
    """Run solve over every bijection of vertices to lines.

    NotFound entries are candidate witnesses only; the solver cannot prove
    non-support."""
    if len(ls) != t.n:
        raise SizeMismatch(f"{len(ls)} lines for a tree on {t.n} vertices")
    if t.n > 7 and not force:
        raise TooLarge(f"{t.n}! bijections; pass force to run anyway")
    found: List[Tuple[int, ...]] = []
    candidates: List[Tuple[int, ...]] = []
    for perm in itertools.permutations(range(1, t.n + 1)):
        asg = Assignment(perm)
        res = solve(ls, t, asg, refine, budget, seed)
        (found if res.found else candidates).append(perm)
    return ScanReport(len(found) + len(candidates),
                      tuple(found), tuple(candidates))


# ---------------------------------------------------------------------------
# path descriptors (combinatorial types, color types, doors)


@dataclass(frozen=True)
class CombTuple:
    a: int
    b: int
    enter: int    # hull side label crossed on entry, 0 when starting inside
    exit: int     # hull side label crossed on exit, 0 when ending inside


def comb_type(ls: LineSet, cc: ColorClasses, seg: Segment,
              hulls: Optional[Dict[RegionIndex, RegionHull]] = None
              ) -> List[CombTuple]:
    """The sequence of region hulls a segment traverses from p to q, with
    entry/exit side labels; traversals are ordered along the segment (by
    the midpoint of each clipped parameter interval)."""
    return [ct for _, ct in _visits(ls, cc, seg, hulls)]


def _visits(ls: LineSet, cc: ColorClasses, seg: Segment,
            hulls: Optional[Dict[RegionIndex, RegionHull]]
            ) -> List[Tuple[Tuple[int, int], CombTuple]]:
    """comb_type's traversals in its order, each with the parameter at
    which the segment enters the hull, as an integer pair (n, d) for
    t = n/d: one clip per hull."""
    if ls.crossings_on(seg):
        raise DegenerateContact("segment touches an arrangement "
                                "intersection point")
    if hulls is None:
        hulls = {r: region_hull(ls, cc, r) for r in all_region_indices(cc)}
    visits = []
    for r, h in hulls.items():
        iv = h.clip_parameters(seg)
        if iv is not None:
            (n0, d0), (n1, d1), enter, leave = iv
            # t_lo + t_hi orders the visits as their midpoints do
            visits.append(((n0 * d1 + n1 * d0, d0 * d1), (n0, d0),
                           (r.a, r.b), CombTuple(r.a, r.b, enter, leave)))
    # by t_lo + t_hi, then by t_lo, then by region
    visits.sort(key=lambda v: (by_parameter(v[0]), by_parameter(v[1]), v[2]))
    return [(t_lo, ct) for _, t_lo, _, ct in visits]


def color_type(t: Tree, asg: Assignment, cc: ColorClasses,
               path: Sequence[int]) -> Tuple[int, ...]:
    """Class ids of the lines assigned along a root-ward directed path."""
    edges = set(t.edges)
    for u, v in zip(path, path[1:]):
        if (u, v) not in edges:
            raise NotAPath(f"({u},{v}) is not a directed tree edge")
    return tuple(cc.class_of(asg.line_of(v)) for v in path)


@dataclass(frozen=True)
class PathDescriptor:
    visited_regions: Tuple[RegionIndex, ...]
    entry_points: Tuple[Tuple[Point, ...], ...]   # one sequence per path
    doors: Tuple[Tuple[Point, ...], ...]          # convex hulls per entry


def path_descriptor(ls: LineSet, cc: ColorClasses, asg: Assignment,
                    emb: Embedding, t: Tree,
                    paths: Sequence[Sequence[int]]) -> PathDescriptor:
    """Descriptor of a uniform family of embedded directed paths sharing a
    start vertex: the common visited-region sequence (revisits counted),
    each path's region entry points (0th = the start vertex point), and the
    doors (convex hulls of the i-th entry points across the family)."""
    if not paths:
        raise EmbedError("need at least one path")
    starts = {p[0] for p in paths}
    if len(starts) != 1:
        raise EmbedError("paths must share their start vertex")
    if len(emb.pos) != t.n:
        raise SizeMismatch("embedding size differs from the tree")
    hulls = {r: region_hull(ls, cc, r) for r in all_region_indices(cc)}

    region_seqs: List[List[RegionIndex]] = []
    entry_seqs: List[List[Point]] = []
    for path in paths:
        regions, entries = _walk_path(ls, cc, asg, emb, t, path, hulls)
        region_seqs.append(regions)
        entry_seqs.append(entries)
    for seq in region_seqs[1:]:
        if seq != region_seqs[0]:
            raise NonUniform("paths visit different region sequences")
    doors = tuple(tuple(convex_hull([entries[i] for entries in entry_seqs]))
                  for i in range(len(entry_seqs[0])))
    return PathDescriptor(tuple(region_seqs[0]),
                          tuple(tuple(e) for e in entry_seqs), doors)


def _walk_path(ls: LineSet, cc: ColorClasses, asg: Assignment,
               emb: Embedding, t: Tree, path: Sequence[int],
               hulls: Dict[RegionIndex, RegionHull]
               ) -> Tuple[List[RegionIndex], List[Point]]:
    color_type(t, asg, cc, path)    # path validity; result unused
    start_pt = emb.point_of(ls, asg, path[0])
    start_region = region_of(ls, cc, asg.line_of(path[0]),
                             emb.pos[path[0]])
    regions = [start_region]
    entries = [start_pt]
    for u, v in zip(path, path[1:]):
        seg = Segment(emb.point_of(ls, asg, u), emb.point_of(ls, asg, v))
        for t_lo, ct in _visits(ls, cc, seg, hulls):
            r = RegionIndex(ct.a, ct.b)
            if ct.enter == 0 and r == regions[-1]:
                continue       # still inside the region we were already in
            regions.append(r)
            entries.append(seg.at(Fraction(*t_lo)))
    return regions, entries


# ---------------------------------------------------------------------------
# the theorem's tree and assignment shape


def build_theorem_tree(d: int, delta: int) -> Tree:
    """The complete delta-ary rooted tree of depth d with its last leaf
    removed; vertex ids follow breadth-first order from the root."""
    if d < 1 or delta < 1:
        raise EmbedError("need depth >= 1 and arity >= 1")
    full = (delta ** (d + 1) - 1) // (delta - 1) if delta > 1 else d + 1
    n = full - 1
    edges = []
    for v in range(1, n):
        edges.append(((v - 1) // delta, v))
    return Tree(n, tuple(edges))


def build_iota(t: Tree, ls: LineSet, cc: ColorClasses, seed: int
               ) -> Assignment:
    """A seeded assignment in the theorem's shape: the root takes line 1,
    and every internal vertex sends exactly delta/c children into each
    color class (one class-1 child short at the deficient vertex, which
    accounts for the root's own line)."""
    if t.n != len(ls) or cc.n != t.n:
        raise SizeMismatch("tree, line set and color classes disagree")
    children = t.children_of()
    delta = max(len(ch) for ch in children.values())
    if delta % cc.c != 0:
        raise DivisibilityError(f"c={cc.c} does not divide delta={delta}")
    per_class = delta // cc.c
    rng = np.random.default_rng(seed)
    pool: Dict[int, List[int]] = {
        k: [i for i in cc.ids_of_class(k)] for k in range(1, cc.c + 1)}
    pool[cc.class_of(1)].remove(1)
    iota: Dict[int, int] = {0: 1}
    for v in t.order:
        ch = sorted(children[v])
        if not ch:
            continue
        quota = {k: per_class for k in range(1, cc.c + 1)}
        if len(ch) == delta - 1:
            quota[1] -= 1       # the deficient vertex lost a class-1 child
        elif len(ch) != delta:
            raise SizeMismatch("tree is not a complete delta-ary tree "
                               "missing one leaf")
        rng.shuffle(ch)
        k = 1
        for w in ch:
            while quota[k] == 0:
                k += 1
            quota[k] -= 1
            picks = pool[k]
            w_line = picks.pop(int(rng.integers(0, len(picks))))
            iota[w] = w_line
    return Assignment(tuple(iota[v] for v in range(t.n)))

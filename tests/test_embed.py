"""Embedding verification, backtracking search, and path descriptors."""

import dataclasses
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from treelines import embed
from treelines.geometry import (
    DegenerateContact,
    Line,
    Point,
    PostconditionError,
    Segment,
    scalar,
    side,
)
from treelines.lineset import (
    ColorClasses,
    LineSetError,
    RegionIndex,
    all_region_indices,
    intersection_order,
    region_hull,
    verify_general_position,
)
from treelines.embed import (
    Assignment,
    CombTuple,
    DivisibilityError,
    EmbedError,
    Embedding,
    NotAPath,
    NonUniform,
    SizeMismatch,
    TooLarge,
    Tree,
    Violation,
    ViolationKind,
    build_iota,
    build_theorem_tree,
    candidate_positions,
    check_embedding,
    color_type,
    comb_type,
    path_descriptor,
    scan_universality,
    solve,
)

from conftest import path_tree, random_cup, random_lines, star_tree


@pytest.fixture(scope="module")
def four_lines():
    # y = -x, y = 1, y = x, y = 3x - 1
    return verify_general_position(
        [Line(scalar(-1), scalar(0)), Line(scalar(0), scalar(-1)),
         Line(scalar(1), scalar(0)), Line(scalar(3), scalar(1))])


PATH4 = path_tree(4)
ASG4 = Assignment((1, 3, 2, 4))


def _emb(*xs):
    return Embedding(tuple(Fraction(x) for x in xs))


def test_tree_validation():
    with pytest.raises(EmbedError):
        Tree(3, ((0, 1),))                 # too few edges
    with pytest.raises(EmbedError):
        Tree(3, ((0, 1), (0, 1)))          # duplicate child
    with pytest.raises(EmbedError):
        Tree(4, ((0, 1), (1, 2), (3, 2)))  # two parents for vertex 2
    t = path_tree(4)
    assert t.order == (0, 1, 2, 3)
    assert star_tree(4).children_of()[0] == [1, 2, 3]


def test_bfs_order_goes_level_by_level_each_level_by_id():
    # a queue from the root would take 4, the child of 1, before 3
    t = Tree(5, ((0, 1), (0, 2), (1, 4), (2, 3)))
    assert t.order == (0, 1, 2, 3, 4)


def test_tree_validation_vs_networkx(rng):
    """Random parent arrays accepted by Tree are exactly those whose edge
    set is a tree rooted at 0 per networkx."""
    for _ in range(300):
        n = int(rng.integers(2, 9))
        parents = [int(rng.integers(0, n)) for _ in range(1, n)]
        edges = tuple((p, v) for v, p in enumerate(parents, 1))
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        want = nx.is_tree(g)
        try:
            Tree(n, edges)
            got = True
        except EmbedError:
            got = False
        assert got == want, edges


def test_check_crossing_free(four_lines):
    rep = check_embedding(four_lines, PATH4, ASG4,
                          _emb(-2, 2, 0, Fraction(1, 3)))
    assert rep.crossing_free
    assert rep.violations == ()
    assert rep.warnings == ()


def test_check_proper_cross(four_lines):
    rep = check_embedding(four_lines, PATH4, ASG4, _emb(-2, 2, 0, 2))
    assert not rep.crossing_free
    kinds = {v.kind for v in rep.violations}
    assert ViolationKind.PROPER_CROSS in kinds


def test_check_touch_and_vertex_on_edge(four_lines):
    # vertex 3 at (1, 2) sits on the interior of edge 0-1
    rep = check_embedding(four_lines, PATH4, ASG4, _emb(-2, 2, 0, 1))
    assert not rep.crossing_free
    kinds = {v.kind for v in rep.violations}
    assert ViolationKind.VERTEX_ON_EDGE in kinds
    assert ViolationKind.TOUCH in kinds


def test_check_coincident_vertices(four_lines):
    # l1 and l3 meet at the origin
    rep = check_embedding(four_lines, PATH4, ASG4, _emb(0, 0, 0, 2))
    assert not rep.crossing_free
    kinds = {v.kind for v in rep.violations}
    assert ViolationKind.COINCIDENT_VERTICES in kinds
    assert any("intersection point" in w for w in rep.warnings)


def test_check_shared_endpoint_allowed(four_lines):
    # consecutive path edges share a vertex; that contact is not a violation
    rep = check_embedding(four_lines, PATH4, ASG4,
                          _emb(-2, 2, 0, Fraction(1, 3)))
    assert rep.crossing_free


def test_check_size_mismatch(four_lines):
    with pytest.raises(SizeMismatch):
        check_embedding(four_lines, PATH4, ASG4, _emb(0, 1))


def test_check_rejects_a_line_set_of_another_size():
    # five lines for a three-vertex tree: the error solve gives, before
    # the assignment or the drawing is read
    ls = random_lines(np.random.default_rng(7), 5)
    tree = Tree(3, ((0, 1), (1, 2)))
    with pytest.raises(SizeMismatch) as exc:
        check_embedding(ls, tree, Assignment((1, 2, 3)), _emb(0, 1, 2))
    assert str(exc.value) == "5 lines for a tree on 3 vertices"
    with pytest.raises(SizeMismatch) as exc:
        solve(ls, tree, Assignment((1, 2, 3)), 1, 0, 0)
    assert str(exc.value) == "5 lines for a tree on 3 vertices"


def test_candidate_positions_counts(four_lines):
    three = verify_general_position(
        [Line(scalar(-1), scalar(0)), Line(scalar(0), scalar(-1)),
         Line(scalar(1), scalar(0))])
    assert len(candidate_positions(three, 1, 1)) == 3
    assert len(candidate_positions(three, 1, 4)) == 6
    # four lines: three breakpoints per line, two interior intervals
    assert len(candidate_positions(four_lines, 2, 2)) == 6
    xs = [p.x for _, p in intersection_order(four_lines, 1)]
    assert not {p.x for p in candidate_positions(four_lines, 1, 3)} & set(xs)
    with pytest.raises(LineSetError, match="refine must be >= 1"):
        candidate_positions(three, 1, 0)


def test_candidate_positions_are_kept_per_line_and_refine(four_lines):
    first = candidate_positions(four_lines, 2, 2)
    assert isinstance(first, tuple)
    assert candidate_positions(four_lines, 2, 2) == first
    assert candidate_positions(four_lines, 2, 2) is first
    # a cold copy of the set computes the same positions from scratch, and
    # another refine on the same line gets its own entry, kept as well
    cold = verify_general_position(list(four_lines.lines))
    for refine in (2, 3, 1):
        got = candidate_positions(four_lines, 2, refine)
        assert len(got) == 2 * refine + 2
        assert got == candidate_positions(cold, 2, refine)
        assert candidate_positions(four_lines, 2, refine) is got
    assert candidate_positions(four_lines, 2, 2) == first


def test_candidate_points_lie_on_their_line_and_no_other(four_lines, rng):
    for ls in (four_lines, *(random_lines(rng, n) for n in (1, 2, 5, 7))):
        for i in range(1, len(ls) + 1):
            for refine in (1, 3):
                for p in candidate_positions(ls, i, refine):
                    assert p == ls.line(i).point_at(p.x)
                    assert not any(l.contains(p) for j, l in enumerate(ls, 1)
                                   if j != i)


def test_a_second_scan_builds_no_candidate_point(four_lines, monkeypatch):
    # budget 0: no restarts, which draw their own points, so every point
    # the scans read comes from the grid
    ls = verify_general_position(list(four_lines.lines))
    calls = []
    point_at = Line.point_at

    def counted(self, x):
        calls.append(x)
        return point_at(self, x)

    monkeypatch.setattr(Line, "point_at", counted)
    first = scan_universality(ls, star_tree(4), refine=2, budget=0)
    assert first.total == 24 and len(calls) == 4 * 6
    calls.clear()
    assert scan_universality(ls, star_tree(4), refine=2, budget=0) == first
    assert calls == []


def test_check_warnings_on_arrangement_crossings(four_lines):
    # vertices 0 and 2 sit on crossings (0, 0) and (-1, 1); edge (0, 1)
    # runs from (0, 0) to (2, 2) through the crossings (1/2, 1/2), (1, 1)
    emb = _emb(0, 2, -1, 3)
    want = ("vertex 0 sits on an arrangement intersection point",
            "vertex 2 sits on an arrangement intersection point",
            "edge (0, 1) passes through an arrangement intersection point")
    for ls in (four_lines, verify_general_position(list(four_lines.lines))):
        for _ in range(2):      # once cold, once with the crossings cached
            rep = check_embedding(ls, PATH4, ASG4, emb)
            assert rep.crossing_free
            assert rep.warnings == want


def test_check_builds_each_edge_segment_once(monkeypatch):
    # the violations and the crossing warnings share one Segment per edge
    built = []
    real = Segment.__post_init__

    def counting(seg):
        built.append(seg)
        real(seg)

    monkeypatch.setattr(Segment, "__post_init__", counting)
    ls = random_lines(np.random.default_rng(7), 50)
    xs = np.random.default_rng(8).integers(-500, 500, size=50)
    emb = Embedding(tuple(Fraction(int(x), 7) for x in xs))
    check_embedding(ls, path_tree(50), Assignment(tuple(range(1, 51))), emb)
    assert len(built) == 49


def test_check_warns_for_exactly_the_vertices_on_crossings(rng):
    # each vertex at a random crossing of its line or between two, where
    # candidate_positions puts it; only the former are warned about
    for n in (2, 3, 5, 8):
        for _ in range(4):
            ls = random_lines(rng, n)
            asg = Assignment(tuple(int(i) + 1 for i in rng.permutation(n)))
            on, xs = set(), []
            for v in range(n):
                line = asg.line_of(v)
                if rng.random() < 0.5:
                    row = intersection_order(ls, line)
                    xs.append(row[int(rng.integers(0, n - 1))][1].x)
                    on.add(v)
                else:
                    free = candidate_positions(ls, line, 2)
                    xs.append(free[int(rng.integers(0, len(free)))].x)
            rep = check_embedding(ls, path_tree(n), asg, Embedding(tuple(xs)))
            assert {w for w in rep.warnings if w.startswith("vertex")} == {
                f"vertex {v} sits on an arrangement intersection point"
                for v in on}


def test_solve_and_verify(four_lines):
    res = solve(four_lines, PATH4, ASG4, refine=3, budget=200, seed=1)
    assert res.found
    rep = check_embedding(four_lines, PATH4, ASG4, res.embedding)
    assert rep.crossing_free


def test_solve_and_scan_on_a_one_vertex_tree():
    # a lone line crosses nothing, so its one candidate position is 0
    ls = verify_general_position([Line(scalar(0), scalar(0))])
    tree, asg = Tree(1, ()), Assignment((1,))
    assert [p.x for p in candidate_positions(ls, 1, 4)] == [Fraction(0)]
    res = solve(ls, tree, asg, refine=4, budget=10, seed=0)
    assert res.found and res.embedding == Embedding((Fraction(0),))
    assert check_embedding(ls, tree, asg, res.embedding).crossing_free
    rep = scan_universality(ls, tree, refine=4, budget=10)
    assert (rep.total, rep.found, rep.all_found) == (1, ((1,),), True)


def test_solve_raises_when_its_embedding_fails_the_check(four_lines,
                                                         monkeypatch):
    bad = Violation(ViolationKind.TOUCH, (0, 1))
    monkeypatch.setattr(embed, "_violations", lambda *args: (bad,))
    with pytest.raises(PostconditionError):
        solve(four_lines, PATH4, ASG4, refine=3, budget=200, seed=1)


def test_solve_restarts_when_the_grid_is_empty(four_lines, monkeypatch):
    monkeypatch.setattr(embed, "candidate_positions", lambda *args: ())
    res = solve(four_lines, PATH4, ASG4, refine=3, budget=1000, seed=5)
    assert res.found and res.nodes == 0 and res.restarts >= 1
    assert check_embedding(four_lines, PATH4, ASG4,
                           res.embedding).crossing_free
    assert solve(four_lines, PATH4, ASG4, refine=3, budget=1000,
                 seed=5) == res
    assert solve(four_lines, PATH4, ASG4, refine=3, budget=0,
                 seed=5) == embed.SolveResult(False, None, 0, 0)


# on the four lines, the path 0-1-2-3 on lines 1, 4, 2, 3 takes 13 grid
# nodes and one unplace before the search finds its embedding
ASG_BACKTRACKS = Assignment((1, 4, 2, 3))


def test_solve_backtracks_to_its_embedding(four_lines, monkeypatch):
    unplaced = []
    real = embed._Placer.unplace
    monkeypatch.setattr(embed._Placer, "unplace",
                        lambda self, v: (unplaced.append(v), real(self, v)))
    res = solve(four_lines, PATH4, ASG_BACKTRACKS, refine=3, budget=0,
                seed=0)
    assert res.found and res.nodes > PATH4.n and res.restarts == 0
    assert unplaced
    assert check_embedding(four_lines, PATH4, ASG_BACKTRACKS,
                           res.embedding).crossing_free


class _StalePlacer(embed._Placer):
    """unplace forgets the point but keeps its segment, and a vertex placed
    again keeps the segment drawn to its earlier point."""

    def unplace(self, v):
        del self.points[v]

    def place(self, v, p):
        stale = self.segs.get(v)
        if not super().place(v, p):
            return False
        if stale is not None:
            self.segs[v] = stale
        return True


class _ShiftedPlacer(embed._Placer):
    """Draws each edge to the offered point, but keeps for the vertex the
    point one unit to its right, so the returned positions move by 1."""

    def place(self, v, p):
        if not super().place(v, p):
            return False
        self.points[v] = Point(p.x + 1, p.y)
        return True


class _StarPlacer(embed._Placer):
    """Draws and records every edge from the root, whatever the tree."""

    def __init__(self, t):
        super().__init__(t)
        self.parent = {v: 0 for v in self.parent}


@pytest.mark.parametrize("placer", [_StalePlacer, _ShiftedPlacer,
                                    _StarPlacer])
def test_solve_raises_when_the_segments_are_not_the_returned_drawing(
        four_lines, monkeypatch, placer):
    # the stale and the shifted placers' segments pass _violations: the
    # stale segment ends at an earlier point of its vertex and crosses
    # nothing, and the shifted drawing crosses nothing; the star, labelled
    # with the tree's edges, passes through vertex 0 and fails it too
    monkeypatch.setattr(embed, "_Placer", placer)
    with pytest.raises(PostconditionError):
        solve(four_lines, PATH4, ASG_BACKTRACKS, refine=3, budget=0, seed=0)


class _RerootingPlacer(embed._Placer):
    """Writes the star's parents into the parent map it was handed, in
    place, and so draws every edge from the root."""

    def __init__(self, t):
        super().__init__(t)
        for v in self.parent:
            self.parent[v] = 0


def test_solve_raises_when_the_placer_writes_into_the_parent_map(
        four_lines, monkeypatch):
    # had the placer written into the tree's own map, the postcondition
    # would read the star it drew and solve would return it
    monkeypatch.setattr(embed, "_Placer", _RerootingPlacer)
    with pytest.raises((TypeError, PostconditionError)):
        solve(four_lines, PATH4, ASG_BACKTRACKS, refine=3, budget=0, seed=0)
    assert dict(PATH4.parent) == {1: 0, 2: 1, 3: 2}


def test_tree_order_and_parent_are_computed_once_and_read_only(
        four_lines, monkeypatch):
    tree, asg = Tree(4, ((0, 1), (0, 2), (1, 3))), Assignment((2, 1, 4, 3))
    order, parent = tree.order, tree.parent
    first = solve(four_lines, tree, asg, refine=3, budget=200, seed=1)
    assert first.found
    with pytest.raises(TypeError):
        parent[3] = 0
    with pytest.raises(TypeError):
        del parent[3]
    with pytest.raises(TypeError):
        order[1] = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.order = (0, 2, 1, 3)
    tree.children_of()[0].reverse()    # a new dict on every call
    # neither a read nor a later solve builds the order or the map again
    monkeypatch.setattr(Tree, "children_of",
                        lambda self: pytest.fail("order built again"))
    assert solve(four_lines, tree, asg, refine=3, budget=200, seed=1) == \
        first
    assert tree.order is order and tree.parent is parent
    assert order == (0, 1, 2, 3) and dict(parent) == {1: 0, 2: 0, 3: 1}


@pytest.mark.parametrize("grid", [True, False])
def test_solve_builds_one_segment_per_offered_edge(four_lines, monkeypatch,
                                                   grid):
    # every segment is built by _Placer.place, for the edge of a non-root
    # vertex it is offered: none is built again after the search
    if not grid:
        monkeypatch.setattr(embed, "candidate_positions", lambda *args: ())
    built, offered = [], []
    real_segment, real_place = embed.Segment, embed._Placer.place

    def segment(p, q):
        built.append((p, q))
        return real_segment(p, q)

    def place(self, v, p):
        if v in self.parent:
            offered.append(v)
        return real_place(self, v, p)

    monkeypatch.setattr(embed, "Segment", segment)
    monkeypatch.setattr(embed._Placer, "place", place)
    res = solve(four_lines, PATH4, ASG_BACKTRACKS, refine=3, budget=1000,
                seed=5)
    assert res.found and (res.restarts > 0) != grid
    assert len(built) == len(offered) > 0


def _placer(ls, tree, asg, *placed):
    """A solver placer holding the (vertex, x) placements, parents first;
    its ``at(v, x)`` is the point at abscissa x on v's line."""
    placer = embed._Placer(tree)
    placer.at = lambda v, x: ls.line(asg.line_of(v)).point_at(Fraction(x))
    for v, x in placed:
        assert placer.place(v, placer.at(v, x)), (v, x)
    return placer


def _accepts(placer, v, x):
    """Whether the placer places vertex v at abscissa x: an accepted probe
    is unplaced again, and a rejected one leaves the placer as it was."""
    before = (dict(placer.points), dict(placer.segs))
    placed = placer.place(v, placer.at(v, x))
    if placed:
        placer.unplace(v)
    assert (placer.points, placer.segs) == before
    return placed


def test_placer_keys_each_segment_by_its_child(four_lines, rng):
    # a seeded walk of places and unplaces, parents first and leaves last;
    # after each step segs maps exactly the placed non-root vertices, each
    # to the segment from its tree parent's placed point to its own
    tree, asg = Tree(4, ((0, 1), (0, 2), (1, 3))), Assignment((2, 1, 4, 3))
    parent = tree.parent
    xs = {v: [p.x for p in candidate_positions(four_lines, asg.line_of(v), 2)]
          for v in range(tree.n)}
    placer = _placer(four_lines, tree, asg)
    # "out of order" counts unplaces of a vertex placed before another one
    # that is still placed
    steps = {"placed": 0, "rejected": 0, "unplaced": 0, "out of order": 0}
    for _ in range(300):
        pts = placer.points
        free = [v for v in range(tree.n) if v not in pts
                and (v == 0 or parent[v] in pts)]
        leaves = [v for v in pts
                  if not any(parent.get(w) == v for w in pts)]
        if not free or (leaves and rng.random() < 0.4):
            v = int(rng.choice(leaves))
            steps["out of order"] += v != list(pts)[-1]
            placer.unplace(v)
            steps["unplaced"] += 1
        else:
            v = int(rng.choice(free))
            x = xs[v][int(rng.integers(len(xs[v])))]
            if _accepts(placer, v, x):
                assert placer.place(v, placer.at(v, x))
                steps["placed"] += 1
            else:
                steps["rejected"] += 1
        assert placer.segs.keys() == pts.keys() - {0}
        for v, seg in placer.segs.items():
            assert seg == Segment(pts[parent[v]], pts[v])
    assert min(steps.values()) > 0, steps


def test_placer_rejects_a_new_point_on_a_placed_edge(four_lines):
    # vertices 0, 1, 2 at (-2, 2), (2, 2), (0, 1)
    placer = _placer(four_lines, PATH4, ASG4, (0, -2), (1, 2), (2, 0))
    assert _accepts(placer, 3, Fraction(1, 3))
    # (1, 2) is inside edge 0-1; (4/5, 7/5) inside the parent's edge 1-2,
    # so the new edge would fold back onto it
    assert not _accepts(placer, 3, Fraction(1))
    assert not _accepts(placer, 3, Fraction(4, 5))


def test_placer_rejects_a_placed_vertex_inside_the_new_edge(four_lines):
    # vertices 0, 1, 2 at (-2, 2), (2, 2), (-4, 1)
    placer = _placer(four_lines, PATH4, ASG4, (0, -2), (1, 2), (2, -4))
    assert _accepts(placer, 3, Fraction(1, 3))
    # the edge from (-4, 1) to (8/5, 19/5) passes through vertex 0
    assert not _accepts(placer, 3, Fraction(8, 5))


def test_placer_rejects_a_sibling_collinear_with_its_parent_edge(
        four_lines):
    star, asg = star_tree(4), Assignment((1, 2, 3, 4))
    # root at (-2, 2), its child 1 at (0, 1)
    placer = _placer(four_lines, star, asg, (0, -2), (1, 0))
    assert _accepts(placer, 2, Fraction(1, 2))
    # (2/3, 2/3) lies on the ray from the root through vertex 1
    assert not _accepts(placer, 2, Fraction(2, 3))


class _FirstDraws:
    """A stand-in rng: ``integers`` returns the given draws first, then a
    seeded generator's."""

    def __init__(self, first, seed):
        self.first = list(first)
        self.rest = np.random.default_rng(seed)

    def integers(self, low, high):
        return self.first.pop(0) if self.first else self.rest.integers(
            low, high)


def test_random_attempt_skips_an_abscissa_on_a_breakpoint(four_lines):
    # the placer never sees two points on one crossing, since a restart
    # skips every abscissa where a second line crosses the vertex's own
    asg = Assignment((3, 1, 2, 4))
    lines = {v: four_lines.line(asg.line_of(v)) for v in range(4)}
    bps = {v: [p.x for _, p in intersection_order(four_lines,
                                                  asg.line_of(v))]
           for v in range(4)}
    # vertex 0 is on y = x, with breakpoints 0, 1/2 and 1, so the restart
    # draws x from [-2, 3]: the first draw, 2/5 of the way, is x = 0, the
    # crossing with line 1, which is vertex 1's line
    assert bps[0] == [0, Fraction(1, 2), 1]
    draw = 2 * embed._DENOM * 1000 // 5
    rng = _FirstDraws([draw], seed=3)
    placer = embed._Placer(PATH4)
    assert embed._random_attempt(placer, PATH4.order, lines, bps, rng)
    assert not rng.first
    assert placer.points[0] != Point(0, 0)
    for v, p in placer.points.items():
        assert [i for i, l in enumerate(four_lines, 1)
                if l.contains(p)] == [asg.line_of(v)]


def test_scan_universality_small(four_lines, rng):
    three = random_lines(rng, 3)
    report = scan_universality(three, path_tree(3), refine=2, budget=50)
    assert report.total == 6
    assert report.all_found
    report4 = scan_universality(four_lines, star_tree(4), refine=3,
                                budget=200)
    assert report4.total == 24
    assert report4.all_found


def test_scan_universality_same_report_with_warm_caches(four_lines, rng):
    three = random_lines(rng, 3)
    for ls, tree, refine, budget in ((three, path_tree(3), 2, 50),
                                     (four_lines, star_tree(4), 3, 200),
                                     (four_lines, path_tree(4), 1, 20)):
        cold = scan_universality(
            verify_general_position(list(ls.lines)), tree, refine, budget)
        warm = scan_universality(ls, tree, refine, budget)
        assert warm == scan_universality(ls, tree, refine, budget) == cold


def test_scan_guards(four_lines, rng):
    with pytest.raises(SizeMismatch):
        scan_universality(four_lines, path_tree(3), 2, 10)
    big = random_lines(rng, 8)
    with pytest.raises(TooLarge):
        scan_universality(big, path_tree(8), 1, 1)


def test_comb_type_single_region(four_lines):
    cc = ColorClasses(2, 4)
    # a short segment in the left wedge between l1 and l2 stays in R_{1,1}
    seg = Segment(Point(Fraction(-50), Fraction(30)),
                  Point(Fraction(-49), Fraction(30)))
    out = comb_type(four_lines, cc, seg)
    assert out == [CombTuple(1, 1, 0, 0)]


def test_comb_type_rejects_color_classes_of_another_size(four_lines):
    # without hulls given, comb_type builds them through region_hull, which
    # refuses classes sized for another line set
    seg = Segment(Point(Fraction(-50), Fraction(30)),
                  Point(Fraction(-49), Fraction(30)))
    with pytest.raises(LineSetError, match="sized for a different line set"):
        comb_type(four_lines, ColorClasses(2, 2), seg)


def test_comb_type_reversal_symmetry(four_lines, rng):
    cc = ColorClasses(2, 4)
    hulls = {r: region_hull(four_lines, cc, r)
             for r in all_region_indices(cc)}
    done = 0
    while done < 30:
        c = [Fraction(int(v), 7) for v in rng.integers(-80, 80, size=4)]
        if (c[0], c[1]) == (c[2], c[3]):
            continue
        seg = Segment(Point(c[0], c[1]), Point(c[2], c[3]))
        rev = Segment(seg.q, seg.p)
        try:
            fwd = comb_type(four_lines, cc, seg, hulls)
            bwd = comb_type(four_lines, cc, rev, hulls)
        except DegenerateContact:
            continue
        done += 1
        assert bwd == [CombTuple(t.a, t.b, t.exit, t.enter)
                       for t in reversed(fwd)]


def test_comb_type_labels_name_the_side_crossed(rng):
    # oracle: a segment enters or leaves a hull strictly inside it on the
    # one side whose supporting line holds that point, and carries label 0
    # at an end of the segment
    checked = 0
    for ls, c in ((random_lines(rng, 8), 2), (random_cup(rng, 12), 4),
                  (random_lines(rng, 12), 3)):
        cc = ColorClasses(c, len(ls))
        hulls = {r: region_hull(ls, cc, r) for r in all_region_indices(cc)}
        pts = ls.intersection_points()
        lo = min(min(p.x for p in pts), min(p.y for p in pts)) - 1
        span = max(max(p.x for p in pts), max(p.y for p in pts)) + 1 - lo
        for _ in range(12):
            c4 = [lo + span * Fraction(int(v), 997)
                  for v in rng.integers(0, 997, size=4)]
            if (c4[0], c4[1]) == (c4[2], c4[3]):
                continue
            seg = Segment(Point(c4[0], c4[1]), Point(c4[2], c4[3]))
            try:
                got = comb_type(ls, cc, seg, hulls)
            except DegenerateContact:
                continue
            want = []
            for r, h in hulls.items():
                iv = h.clip_parameters(seg)
                if iv is None:
                    continue
                t0, t1 = Fraction(*iv[0]), Fraction(*iv[1])
                labels = []
                for t, end in ((t0, 0), (t1, 1)):
                    if t == end:
                        labels.append(0)
                        continue
                    on = [k + 1 for k, s in enumerate(h.sides)
                          if side(s.halfplane, seg.at(t).homogeneous) == 0]
                    assert len(on) == 1, (r, t, on)
                    labels.append(on[0])
                    checked += 1
                want.append(((t0 + t1) / 2, t0,
                             CombTuple(r.a, r.b, *labels)))
            want.sort(key=lambda v: (v[0], v[1], (v[2].a, v[2].b)))
            assert got == [v[2] for v in want]
    assert checked >= 50, checked


def test_comb_type_degenerate(four_lines):
    cc = ColorClasses(2, 4)
    seg = Segment(Point(Fraction(-5), Fraction(0)),
                  Point(Fraction(5), Fraction(0)))   # through the origin
    with pytest.raises(DegenerateContact):
        comb_type(four_lines, cc, seg)


def test_color_type(four_lines):
    cc = ColorClasses(2, 4)
    assert color_type(PATH4, ASG4, cc, [0, 1, 2, 3]) == (1, 2, 1, 2)
    with pytest.raises(NotAPath):
        color_type(PATH4, ASG4, cc, [0, 2])
    with pytest.raises(NotAPath):
        color_type(PATH4, ASG4, cc, [1, 0])        # wrong direction


def test_path_descriptor_two_paths(four_lines):
    cc = ColorClasses(2, 4)
    star = star_tree(4)
    emb = _emb(-40, 30, 35, 40)
    desc = path_descriptor(four_lines, cc, ASG4, emb, star,
                           [[0, 1], [0, 2]])
    assert len(desc.entry_points) == 2
    for seq in desc.entry_points:
        assert len(seq) == len(desc.visited_regions)
    assert len(desc.doors) == len(desc.visited_regions)
    start = emb.point_of(four_lines, ASG4, 0)
    assert desc.doors[0] == (start,)
    assert desc.visited_regions[0] == RegionIndex(1, 1)


def test_path_descriptor_non_uniform(four_lines):
    cc = ColorClasses(2, 4)
    star = star_tree(4)
    # one edge crosses the arrangement, the other stays far outside it
    emb = _emb(-40, 30, Fraction(1, 2), 40)
    with pytest.raises((NonUniform, DegenerateContact)):
        path_descriptor(four_lines, cc, ASG4, emb, star, [[0, 1], [0, 2]])


def test_path_descriptor_rejects_a_short_embedding(four_lines):
    cc = ColorClasses(2, 4)
    with pytest.raises(SizeMismatch) as exc:
        path_descriptor(four_lines, cc, ASG4, _emb(-40, 30, 35), star_tree(4),
                        [[0, 1], [0, 3]])
    assert str(exc.value) == "embedding size differs from the tree"


def test_build_theorem_tree():
    t = build_theorem_tree(1, 2)
    assert t.n == 2 and t.edges == ((0, 1),)
    t = build_theorem_tree(2, 2)
    assert t.n == 6
    assert t.edges == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5))
    deg = [len(t.children_of()[v]) for v in range(6)]
    assert deg == [2, 2, 1, 0, 0, 0]


def test_build_iota_quotas(rng):
    t = build_theorem_tree(2, 2)
    ls = random_lines(rng, 6)
    cc = ColorClasses(2, 6)
    asg = build_iota(t, ls, cc, seed=7)
    asg.check_bijection(6)
    assert asg.line_of(0) == 1
    children = t.children_of()
    classes = {v: cc.class_of(asg.line_of(v)) for v in range(6)}
    for v in (0, 1):
        assert sorted(classes[w] for w in children[v]) == [1, 2]
    assert [classes[w] for w in children[2]] == [2]   # deficient vertex
    with pytest.raises(DivisibilityError):
        build_iota(build_theorem_tree(2, 3), random_lines(rng, 12),
                   ColorClasses(2, 12), seed=0)


def _descriptor(ls, *paths):
    return path_descriptor(ls, ColorClasses(2, 4), ASG4, _emb(-2, 2, 0, 1),
                           PATH4, list(paths))


@pytest.mark.parametrize("call, error, message", [
    (lambda ls: Tree(0, ()), EmbedError, "root outside vertex range"),
    (lambda ls: Tree(2, ((0, 2),)), EmbedError,
     "edge (0,2) outside vertex range"),
    (_descriptor, EmbedError, "need at least one path"),
    (lambda ls: _descriptor(ls, [0, 1], [1, 2]), EmbedError,
     "paths must share their start vertex"),
    (lambda ls: build_theorem_tree(0, 2), EmbedError,
     "need depth >= 1 and arity >= 1"),
    (lambda ls: build_iota(path_tree(3), ls, ColorClasses(2, 4), seed=0),
     SizeMismatch, "tree, line set and color classes disagree"),
    # delta = 3 from the root, but vertex 1 has one child
    (lambda ls: build_iota(Tree(5, ((0, 1), (0, 2), (0, 3), (1, 4))),
                           random_lines(np.random.default_rng(0), 5),
                           ColorClasses(1, 5), seed=0),
     SizeMismatch, "tree is not a complete delta-ary tree missing one leaf"),
])
def test_input_checks_raise_their_error(four_lines, call, error, message):
    with pytest.raises(error) as exc:
        call(four_lines)
    assert str(exc.value) == message

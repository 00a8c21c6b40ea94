"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; the
whole suite is also part of the plain pytest run.
"""

import contextlib
import itertools
import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

from treelines import embed, geometry, lineset, ramsey, unstretch
from treelines.geometry import (
    DegenerateContact,
    Point,
    Ray,
    Segment,
    orientation,
    scalar,
    winding_number,
)
from treelines.lineset import (
    CapCup,
    ChainTable,
    ColorClasses,
    all_region_indices,
    classify_cap_cup,
    intersection_order,
    longest_cap_cup,
    region_hull,
    region_of,
)
from treelines.ramsey import (
    ChainTooShort,
    Color,
    HyperPath,
    TripleColoring,
    check_doubling,
    check_monotone,
    color_by_gaps,
    extract_doubling,
    extract_monotone_gaps,
    longest_mono_path,
    mono_path_bound,
)
from treelines.unstretch import (
    ChainValues,
    HypothesisFail,
    Lemma24Result,
    feasibility_search,
    lemma24_check,
    validate_config,
)
from treelines.embed import (
    CombTuple,
    Tree,
    ViolationKind,
    check_embedding,
    comb_type,
    scan_universality,
)

from conftest import (checker_fixtures, criterion_5_chains, dualize_line,
                      path_tree, random_cup, random_frame, random_lines,
                      star_tree)


def _report(num: int, ok: bool, detail: str, limit: float, elapsed: float):
    timed = elapsed <= limit
    status = "PASS" if (ok and timed) else "FAIL"
    extra = "" if timed else f"; time limit {limit:.0f}s exceeded"
    print(f"\n[ACCEPTANCE] criterion {num}: {status} "
          f"({detail}; {elapsed:.1f}s{extra})")
    assert ok and timed, f"criterion {num}: {detail}{extra}"


# --------------------------------------------------------------------------
# 1. duality vs cap/cup classification


def _dual_is_cup(ls) -> bool:
    pts = [dualize_line(l) for l in ls]
    return all(orientation(a, b, c) == 1
               for a, b, c in zip(pts, pts[1:], pts[2:]))


def test_criterion_1_duality():
    rng = np.random.default_rng(101)
    t0 = time.time()
    ok = True
    for _ in range(100):
        ls = random_lines(rng, 50)
        if (classify_cap_cup(ls) == CapCup.CAP) != _dual_is_cup(ls):
            ok = False
            break
    _report(1, ok, "100 random n=50 sets, cap <=> dual cup",
            5.0, time.time() - t0)


# --------------------------------------------------------------------------
# 2. largest cap/cup subset vs exhaustive search


def _brute_cap_cup_size(ls) -> int:
    best = 3
    n = len(ls)
    for size in range(3, n + 1):
        for ids in itertools.combinations(range(1, n + 1), size):
            if classify_cap_cup(ls.subset(ids)) != CapCup.NEITHER:
                best = max(best, size)
    return best


def _criterion_2(trials: int = 200, bound_sizes=(20, 50, 100)):
    """(ok, detail): the extracted cap or cup is as large as exhaustive
    search finds on ``trials`` random sets of 4 to 10 lines, and meets
    the path bound on a random set of each of ``bound_sizes`` lines."""
    rng = np.random.default_rng(102)
    for trial in range(trials):
        n = int(rng.integers(4, 11))
        ls = random_lines(rng, n)
        kind, sub = longest_cap_cup(ls)
        if classify_cap_cup(sub) == CapCup.NEITHER or \
                len(sub) != _brute_cap_cup_size(ls):
            return False, f"trial {trial}: {kind.value} of {len(sub)} " \
                          f"lines is not a largest cap or cup"
    for n in bound_sizes:
        _, sub = longest_cap_cup(random_lines(rng, n))
        if len(sub) < mono_path_bound(n):
            return False, f"n={n}: {len(sub)} lines, below the bound"
    return True, (f"{trials} exhaustive trials n<=10 plus bound at n="
                  + "/".join(map(str, bound_sizes)))


def test_criterion_2_extractor():
    t0 = time.time()
    ok, detail = _criterion_2()
    _report(2, ok, detail, 60.0, time.time() - t0)


# --------------------------------------------------------------------------
# 3. longest monochromatic hyperpath DP


def _random_coloring(rng, n) -> TripleColoring:
    triples = list(itertools.combinations(range(1, n + 1), 3))
    bits = rng.integers(0, 2, size=len(triples))
    colors = {t: (Color.RED if b else Color.BLUE)
              for t, b in zip(triples, bits)}
    return TripleColoring(n, lambda i, j, k: colors[i, j, k])


def _brute_longest_path(tc) -> int:
    best = 2
    for size in range(3, tc.n + 1):
        hit = False
        for seq in itertools.combinations(range(1, tc.n + 1), size):
            if any(HyperPath(seq, c).check(tc) for c in Color):
                hit = True
                break
        if not hit:
            break
        best = size
    return best


def _criterion_3(trials: int = 200, bound_sizes=(50, 120, 200)):
    """(ok, detail): on ``trials`` random colourings of 4 to 12 vertices
    the longest monochromatic path is valid, as long as brute force finds
    and meets the path bound, and on one random colouring of each of
    ``bound_sizes`` vertices it is valid and meets the bound."""
    rng = np.random.default_rng(103)
    for trial in range(trials):
        n = int(rng.integers(4, 13))
        tc = _random_coloring(rng, n)
        path = longest_mono_path(tc)
        if not path.check(tc) or len(path) != _brute_longest_path(tc) or \
                len(path) < mono_path_bound(n):
            return False, f"trial {trial}: {path} is not a longest path"
    for n in bound_sizes:
        tc = _random_coloring(rng, n)
        path = longest_mono_path(tc)
        if not path.check(tc) or len(path) < mono_path_bound(n):
            return False, f"n={n}: {path} is invalid or below the bound"
    return True, (f"{trials} brute-force trials n<=12 plus bound up to n="
                  + "/".join(map(str, bound_sizes)))


def test_criterion_3_hyperpath_dp():
    t0 = time.time()
    ok, detail = _criterion_3()
    _report(3, ok, detail, 120.0, time.time() - t0)


def _first_found_chains(n, label):
    """ramsey.labelled_chains keeping the first chain it finds for a pair,
    not the longest: its chains are valid, but not always the longest."""
    base = n + 1
    lists = defaultdict(lambda: ([0] * base ** 2, [0] * base ** 2))
    for j in range(2, n + 1):
        for k in range(j + 1, n + 1):
            c = j * base + k
            for i in range(1, j):
                length, pred = lists[label(i, j, k)]
                if not length[c]:
                    length[c] = max(length[i * base + j], 2) + 1
                    pred[c] = i
    # the top and ends of its own lengths
    return {lab: ChainTable.scanned(base, *l) for lab, l in lists.items()}


def test_criterion_3_fails_when_the_dp_keeps_the_first_chain(monkeypatch):
    monkeypatch.setattr(ramsey, "labelled_chains", _first_found_chains)
    assert not _criterion_3(trials=40, bound_sizes=())[0]


# --------------------------------------------------------------------------
# 4. monotone and doubling chain extraction


def _criterion_4(sets: int = 100, compared: int = 10):
    """(ok, detail): on ``sets`` random n=64 sets the monotone and
    doubling chains pass their exact checks, and on the first ``compared``
    the monotone chain is as long as the longest monochromatic path of the
    gap colouring."""
    rng = np.random.default_rng(104)
    for k in range(sets):
        ls = random_lines(rng, 64)
        mono = extract_monotone_gaps(ls)
        if not check_monotone(ls, mono):
            return False, f"set {k}: the monotone chain fails its check"
        if k < compared:
            longest = len(longest_mono_path(color_by_gaps(ls)))
            if len(mono.ids) != longest:
                return False, (f"set {k}: a monotone chain of "
                               f"{len(mono.ids)} lines, the longest path "
                               f"has {longest}")
        try:
            dbl = extract_doubling(ls)
        except ChainTooShort:
            continue
        if not check_doubling(ls, dbl):
            return False, f"set {k}: the doubling chain fails its check"
    return True, (f"{sets} random n=64 sets, exact comparator, the first "
                  f"{compared} against the longest path")


def test_criterion_4_chains():
    t0 = time.time()
    ok, detail = _criterion_4()
    _report(4, ok, detail, 30.0, time.time() - t0)


def _non_maximising_chains(n, key, lower, upper):
    """lineset.ranked_chains with the best chain ending at k overwritten by
    the last pair swept into k instead of maximised: its chains are valid,
    but not always the longest."""
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    num, den = key(*(np.array(c) for c in zip(*pairs)))
    rank = list(map(geometry.ratio_float, num, den))
    pairs = [pairs[x] for x in sorted(range(len(pairs)),
                                      key=rank.__getitem__)]
    base = n + 1
    tables = {}
    for lab, sweep in ((upper, pairs), (lower, reversed(pairs))):
        length, pred = [0] * base ** 2, [0] * base ** 2
        best_length, best_pred = [1] * base, [0] * base
        for j, k in sweep:
            m = best_length[j] + 1
            if m > 2:
                length[j * base + k], pred[j * base + k] = m, best_pred[j]
            best_length[k], best_pred[k] = m, j
        if any(length):
            tables[lab] = ChainTable.scanned(base, length, pred)
    return tables


def test_criteria_2_and_4_fail_on_a_non_maximising_extractor(monkeypatch):
    # ramsey imports the name, so both modules are patched
    monkeypatch.setattr(lineset, "ranked_chains", _non_maximising_chains)
    monkeypatch.setattr(ramsey, "ranked_chains", _non_maximising_chains)
    assert not _criterion_2(trials=40, bound_sizes=())[0]
    assert not _criterion_4(sets=4, compared=4)[0]


# --------------------------------------------------------------------------
# 5. forced-length chain always contradicts the gap condition


def _criterion_5(count: int = 100_000):
    """(ok, detail): the first ``count`` chains of criterion_5_chains that
    satisfy the sine ordering, none of them consistent."""
    checked = 0
    for cv in criterion_5_chains():
        try:
            verdict = lemma24_check(cv)
        except HypothesisFail:
            continue
        checked += 1
        if verdict == Lemma24Result.CONSISTENT:
            return False, (f"chain {checked} is consistent: alpha "
                           f"{[float(x) for x in cv.alpha]}, a3 "
                           f"{float(cv.a[2])}, r {[float(x) for x in cv.r]}")
        if checked == count:
            return True, (f"{checked} hypothesis-satisfying chains, none "
                          "consistent (guard 1e-9 relative)")


def test_criterion_5_chain_contradiction():
    t0 = time.time()
    ok, detail = _criterion_5()
    _report(5, ok, detail, 30.0, time.time() - t0)


def test_criterion_5_fails_when_r3_is_added_to_b1(monkeypatch):
    # the float path decides nearly every chain, so the mutant acts there:
    # it sees -r3, which turns b1 - r3 into b1 + r3
    real = unstretch._float_verdict

    def mutant(cv):
        r1, r2, r3 = cv.r
        return real(ChainValues(cv.alpha, cv.a, cv.b, (r1, r2, -r3)))

    monkeypatch.setattr(unstretch, "_float_verdict", mutant)
    assert not _criterion_5(count=2000)[0]


# --------------------------------------------------------------------------
# 6. unstretchability search oracle


@contextlib.contextmanager
def _screened_triples():
    """A list that collects, for each call of the rule-(ii) screen
    ``_FrameFloats.clearly_meets_hull`` in the block, the number of
    triples (columns) it is given."""
    real = unstretch._FrameFloats.clearly_meets_hull
    counts = []

    def counting(self, u, t):
        counts.append(u.shape[1])
        return real(self, u, t)

    unstretch._FrameFloats.clearly_meets_hull = counting
    try:
        yield counts
    finally:
        unstretch._FrameFloats.clearly_meets_hull = real


def _criterion_6(frames: int = 20, seeds: int = 10, samples: int = 10**6):
    """(ok, detail): no search of ``samples`` samples finds a configuration
    on ``frames`` random frames with each of ``seeds`` seeds, and the
    control with rule (ii) skipped finds one on a cup frame that passes
    the other rules.  The detail gives, for each frame kind, how many
    triples the searches sent to the rule-(ii) screen, and names a kind
    with none as not exercising rule (ii).

    Every frame that ``random_frame`` draws has growing gaps, so
    validate_frame returns Variant.LOWER for all of them: the criterion
    searches caps and cups of that variant only, never a frame whose gaps
    shrink (Variant.UPPER)."""
    rng = np.random.default_rng(106)
    drawn = [random_frame(rng, cup=(k % 2 == 0)) for k in range(frames)]
    screened = {}
    for fi, frame in enumerate(drawn):
        kind = f"{frame.cap_cup.value} {frame.variant.name}"
        with _screened_triples() as counts:
            for seed in range(seeds):
                cfg = feasibility_search(frame, samples=samples, seed=seed)
                if cfg is not None:
                    return False, (f"frame {fi} seed {seed} found a "
                                   f"configuration: {cfg}")
        screened[kind] = screened.get(kind, 0) + sum(counts)
    none = (f"{frames} frames x {seeds} seeds x {samples:,} samples: none; "
            "rule-(ii) screen: " + ", ".join(
                f"{kind} {m:,} triples" + (
                    " (does not exercise rule (ii))" if m == 0 else "")
                for kind, m in screened.items()))
    # control: with the hull-avoidance rule disabled the search space
    # is genuinely explored and configurations exist (on cup frames)
    for frame in drawn:
        if frame.cap_cup != CapCup.CUP:
            continue
        cfg = feasibility_search(frame, samples=samples, seed=0,
                                 skip_properties=frozenset({"ii"}))
        if cfg is not None and all(
                rule == "ii"
                for rule, _ in validate_config(frame, cfg).failures):
            return True, f"{none}; mutation control found=True"
    return False, f"{none}; mutation control found=False"


def test_criterion_6_unstretchability():
    t0 = time.time()
    ok, detail = _criterion_6()
    _report(6, ok, detail, 600.0, time.time() - t0)


def test_criterion_6_names_the_frame_kind_its_screen_never_sees():
    # frame 0 is a cup, frame 1 a cap; only the cup's searches reach the
    # rule-(ii) screen
    _, detail = _criterion_6(frames=2, seeds=1, samples=10**5)
    assert "cap LOWER 0 triples (does not exercise rule (ii))" in detail
    cup = detail.split("cup LOWER ")[1].split(" triples")[0]
    assert int(cup.replace(",", "")) > 0
    assert detail.count("does not exercise") == 1


def test_criterion_6_fails_when_rule_ii_and_its_screen_see_no_hull(
        monkeypatch):
    # the exact rule (ii) clips through this name, and the float screen
    # through its batch clip, which here finds no overlap
    monkeypatch.setattr(unstretch, "clip_to_halfplanes", lambda *a: None)
    monkeypatch.setattr(unstretch._FrameFloats, "_hull_overlap",
                        lambda self, u, t: np.zeros(u.shape))
    assert not _criterion_6(frames=1, seeds=1, samples=10**5)[0]


# --------------------------------------------------------------------------
# 7. embedding checker fixtures


def _criterion_7():
    """(ok, detail): the checker reports each fixture's violation kind,
    and no violation on the crossing-free drawing."""
    for name, kind, *drawing in checker_fixtures():
        rep = check_embedding(*drawing)
        ok = (rep.crossing_free and rep.violations == () if kind is None
              else kind in {v.kind for v in rep.violations})
        if not ok:
            return False, f"{name}: violations {rep.violations}"
    return True, ("crossing-free / cross / overlap / vertex-on-edge / "
                  "shared endpoint")


def test_criterion_7_checker_fixtures():
    t0 = time.time()
    ok, detail = _criterion_7()
    _report(7, ok, detail, 1.0, time.time() - t0)


def test_criterion_7_fails_on_a_checker_blind_to_vertices_on_edges(
        monkeypatch):
    real = embed._violations
    monkeypatch.setattr(embed, "_violations", lambda pts, edges: tuple(
        v for v in real(pts, edges)
        if v.kind != ViolationKind.VERTEX_ON_EDGE))
    assert not _criterion_7()[0]


# --------------------------------------------------------------------------
# 8. small-n universality sweep


def _all_trees(n: int):
    if n == 3:
        return [path_tree(3)]
    if n == 4:
        return [path_tree(4), star_tree(4)]
    return [path_tree(5), star_tree(5),
            Tree(5, ((0, 1), (0, 2), (0, 3), (3, 4)))]


def _criterion_8(sizes=(3, 4, 5), sets: int = 10):
    """(ok, detail): every bijection of every tree on ``sets`` random sets
    of each of ``sizes`` lines has an embedding that solve finds."""
    rng = np.random.default_rng(108)
    for n in sizes:
        for _ in range(sets):
            ls = random_lines(rng, n)
            for t in _all_trees(n):
                rep = scan_universality(ls, t, refine=4, budget=1000)
                if not rep.all_found:
                    return False, (f"NotFound for n={n} tree={t.edges} "
                                   f"iota={rep.candidates[0]}")
    return True, (f"{sets} sets per n in {sizes[0]}..{sizes[-1]}, every "
                  f"tree, every bijection")


def test_criterion_8_universality_sweep():
    t0 = time.time()
    ok, detail = _criterion_8()
    _report(8, ok, detail, 900.0, time.time() - t0)


def test_criterion_8_fails_when_edges_may_not_share_an_endpoint(
        monkeypatch):
    real = embed._contact
    monkeypatch.setattr(embed, "_contact",
                        lambda s1, s2, shared: real(s1, s2, False))
    assert not _criterion_8(sizes=(3,), sets=1)[0]


# --------------------------------------------------------------------------
# 9. region machinery


def _regions_met(ls, cc, seg):
    """The regions of the points where seg crosses the lines, read through
    region_of, in their order from seg.p to seg.q, repeats in a row
    merged: an oracle of comb_type's order that does not use the hulls."""
    met = []
    for i in range(1, len(ls.lines) + 1):
        line = ls.line(i)
        gp, gq = (v.y - line.point_at(v.x).y for v in (seg.p, seg.q))
        if gp * gq < 0:
            t = gp / (gp - gq)
            met.append((t, region_of(ls, cc, i, seg.p.x + t * (seg.q.x -
                                                                seg.p.x))))
    out = []
    for _, r in sorted(met, key=lambda m: m[0]):
        if not out or out[-1] != (r.a, r.b):
            out.append((r.a, r.b))
    return out


def _is_subsequence(part, whole) -> bool:
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


def _region_machinery_ok(ls, cc, hulls, rng, cup: bool) -> bool:
    """Partition coverage on 50 sampled line points and reversal symmetry
    of the traversal tuples on 5 random segments.  On a cup, where the
    region hulls do not overlap, comb_type's regions also hold the regions
    met along the segment (_regions_met) in their order; where hulls
    overlap, ordering traversals by their midpoints may put a region
    entered later before one entered earlier, so random sets skip it."""
    ok = True
    for _ in range(50):
        i = int(rng.integers(1, 13))
        xs = [p.x for _, p in intersection_order(ls, i)]
        x = Fraction(int(rng.integers(-10**6, 10**6)), 999983)
        if x in xs:
            continue
        r = region_of(ls, cc, i, x)
        if not hulls[r].contains(ls.line(i).point_at(x)):
            ok = False
    for _ in range(5):
        c = [Fraction(int(v), 13) for v in rng.integers(-400, 400, size=4)]
        seg = Segment(Point(c[0], c[1]), Point(c[2], c[3]))
        try:
            fwd = comb_type(ls, cc, seg, hulls)
            bwd = comb_type(ls, cc, Segment(seg.q, seg.p), hulls)
        except (DegenerateContact, ValueError):
            continue
        if bwd != [CombTuple(v.a, v.b, v.exit, v.enter)
                   for v in reversed(fwd)]:
            ok = False
        if cup and not _is_subsequence(_regions_met(ls, cc, seg),
                                       [(v.a, v.b) for v in fwd]):
            ok = False
    return ok


def _criterion_9():
    """(ok, detail).  The five-side bound on region hulls is a statement
    about cups: the proof cuts the arrangement into regions only after
    extracting a cap or cup, and at n=12, c=4 random caps reach 6 sides and
    random non-cup sets 7 (see test_lineset.SIX_SIDED_REGIONS).  The bound
    is asserted on random cups; on random non-cup sets the same side check
    is a control that must see more than five sides."""
    rng = np.random.default_rng(109)
    cc = ColorClasses(4, 12)
    ok = True
    control_max = cup_max = 0
    for _ in range(20):
        ls = random_lines(rng, 12)
        hulls = {r: region_hull(ls, cc, r) for r in all_region_indices(cc)}
        if classify_cap_cup(ls) != CapCup.CUP:
            control_max = max(control_max,
                              *(h.side_count for h in hulls.values()))
        ok &= _region_machinery_ok(ls, cc, hulls, rng, cup=False)
    for _ in range(20):
        ls = random_cup(rng, 12)
        ok &= classify_cap_cup(ls) == CapCup.CUP
        hulls = {r: region_hull(ls, cc, r) for r in all_region_indices(cc)}
        cup_max = max(cup_max, *(h.side_count for h in hulls.values()))
        ok &= _region_machinery_ok(ls, cc, hulls, rng, cup=True)
    ok = ok and cup_max <= 5 and control_max > 5
    return ok, (f"20 cups n=12 c=4: max hull sides {cup_max} (bound "
                f"asserted: 5); control on 20 random non-cup sets: max "
                f"{control_max} (must exceed 5)")


def test_criterion_9_regions():
    t0 = time.time()
    ok, detail = _criterion_9()
    _report(9, ok, detail, 30.0, time.time() - t0)


def test_criterion_9_fails_when_a_hull_cone_keeps_only_its_right_ray(
        monkeypatch):
    # both extreme rays of an unbounded hull read as its right-hand one,
    # so the hull loses the left side of its recession cone
    real = lineset._extreme_directions

    def mutant(dirs):
        right, _ = real(dirs)
        return right, right

    monkeypatch.setattr(lineset, "_extreme_directions", mutant)
    assert not _criterion_9()[0]


def test_criterion_9_fails_when_comb_type_lists_traversals_in_reverse(
        monkeypatch):
    # reversal symmetry alone cannot see this: the reversed segment's
    # list is reversed too
    real = comb_type
    monkeypatch.setitem(globals(), "comb_type",
                        lambda *args: list(reversed(real(*args))))
    assert not _criterion_9()[0]


# --------------------------------------------------------------------------
# 10. winding numbers of generated spirals


def _spiral(k: int, points_per_loop: int = 12):
    out = []
    for i in range(k * points_per_loop):
        ang = (i + 0.5) * 2 * math.pi / points_per_loop
        rad = 1 + i * 0.001
        out.append(Point(Fraction(round(math.cos(ang) * rad * 10**6), 10**6),
                         Fraction(round(math.sin(ang) * rad * 10**6), 10**6)))
    out.append(out[0])
    return out


def _criterion_10():
    """(ok, detail): k-loop spirals wind -k about the origin as seen by a
    downward ray, and +k reversed, for k = 1..5; a vertex on the ray is
    rejected."""
    down = Ray(Point(Fraction(0), Fraction(0)), scalar(0), scalar(-1))
    for k in range(1, 6):
        loop = _spiral(k)     # counter-clockwise: arrivals from the right
        for poly, want in ((loop, -k), (list(reversed(loop)), k)):
            got = winding_number(poly, down)
            if got != want:
                return False, f"a {k}-loop spiral winds {got}, not {want}"
    try:
        winding_number([Point(Fraction(-1), Fraction(-1)),
                        Point(Fraction(0), Fraction(-2)),
                        Point(Fraction(1), Fraction(-1))], down)
        return False, "a vertex on the ray was not rejected"
    except DegenerateContact:
        pass
    return True, "k-loop spirals give winding +-k, degeneracies rejected"


def test_criterion_10_winding():
    t0 = time.time()
    ok, detail = _criterion_10()
    _report(10, ok, detail, 1.0, time.time() - t0)


def test_criterion_10_fails_when_every_crossing_reads_ahead(monkeypatch):
    # orientation taken against a point 10**9 behind the downward ray's
    # origin puts every crossing of the ray's line ahead of it, so each
    # loop of a spiral counts both of its crossings, which cancel
    real = geometry.orientation
    up = Fraction(10**9)
    monkeypatch.setattr(geometry, "orientation",
                        lambda p, q, r: real(p, q, Point(r.x, r.y + up)))
    assert not _criterion_10()[0]

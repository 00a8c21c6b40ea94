"""Six-line frame validation, configuration rules, and the forced-length
chain contradiction."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelines import unstretch
from treelines.geometry import (Line, Point, Segment, SegmentRelation,
                                clip_to_halfplanes, line_intersection,
                                segments_intersect)
from treelines.lineset import CapCup, verify_general_position
from treelines.ramsey import Variant, doubling_failure
from treelines.unstretch import (
    ConfigVerdict,
    FrameError,
    _FrameFloats,
    HypothesisFail,
    Lemma24Result,
    NotCapOrCup,
    NotDoubling,
    SpanTooWide,
    TripleEdgeConfig,
    chain_from_parameters,
    config_from_params,
    derive_chain,
    feasibility_search,
    lemma24_check,
    validate_config,
    validate_frame,
)

from conftest import (DOUBLING_DEGREES, RIGHT_SPAN_DEGREES, angle_lineset,
                      chain_with_margin, random_frame, slope_of_degrees,
                      solve_every_edge)

IDS = [1, 2, 3, 4, 5, 6]


def config_edges_disjoint(cfg) -> bool:
    return all(segments_intersect(cfg.edges[a], cfg.edges[b]) is
               SegmentRelation.DISJOINT
               for a in range(3) for b in range(a + 1, 3))


def rule_failures(verdict, *rules):
    """The verdict's (rule, edge) failures of the named rules."""
    return {f for f in verdict.failures if f[0] in rules}


def sine_hypothesis_holds(cv) -> bool:
    with mpmath.workdps(unstretch.DPS):
        return unstretch._sine_ordering([mpmath.sin(x) for x in cv.alpha])


@pytest.fixture(scope="module")
def cup_frame():
    return validate_frame(angle_lineset(DOUBLING_DEGREES, cup=True), IDS)


@pytest.fixture(scope="module")
def cap_frame():
    return validate_frame(angle_lineset(DOUBLING_DEGREES), IDS)


def test_validate_frame_accepts(cup_frame, cap_frame):
    assert cup_frame.cap_cup == CapCup.CUP
    assert cap_frame.cap_cup == CapCup.CAP
    assert cup_frame.variant == Variant.LOWER
    assert cap_frame.variant == Variant.LOWER


def test_validate_frame_errors():
    ls = angle_lineset(DOUBLING_DEGREES)
    with pytest.raises(FrameError):
        validate_frame(ls, [1, 2, 3, 4, 5])
    with pytest.raises(FrameError):
        validate_frame(ls, [2, 1, 3, 4, 5, 6])
    with pytest.raises(SpanTooWide):
        validate_frame(angle_lineset([0, 10, 25, 45, 70, 100]), IDS)
    with pytest.raises(NotDoubling) as exc:
        validate_frame(angle_lineset([0, 6, 11, 16, 21, 26]), IDS)
    assert exc.value.j == 2


def test_validate_frame_right_angle_span():
    # a doubling cup whose span is exactly a right angle is too wide; one
    # degree less and the same frame validates
    right = angle_lineset(RIGHT_SPAN_DEGREES, cup=True)
    assert right.line(6).slope * right.line(1).slope == -1
    with pytest.raises(SpanTooWide):
        validate_frame(right, IDS)
    acute = angle_lineset(RIGHT_SPAN_DEGREES[:-1] + [44], cup=True)
    assert validate_frame(acute, IDS).cap_cup == CapCup.CUP


def test_validate_frame_upper_variant():
    # the mirrored gaps shrink toward l_6: LOWER fails at position 2 and
    # UPPER holds
    mirrored = [DOUBLING_DEGREES[-1] - a for a in reversed(DOUBLING_DEGREES)]
    for cup in (False, True):
        ls = angle_lineset(mirrored, cup=cup)
        assert doubling_failure(ls.lines, Variant.LOWER) == 2
        frame = validate_frame(ls, IDS)
        assert frame.variant == Variant.UPPER
        assert frame.cap_cup == (CapCup.CUP if cup else CapCup.CAP)


def test_frame_equality_ignores_its_line_set(cup_frame):
    again = validate_frame(angle_lineset(DOUBLING_DEGREES, cup=True), IDS)
    assert again.sub is not cup_frame.sub
    assert again == cup_frame and hash(again) == hash(cup_frame)
    assert repr(again) == repr(cup_frame)
    assert "sub" not in repr(cup_frame)


def test_validate_frame_not_cap_or_cup():
    lines = []
    for k, a in enumerate(DOUBLING_DEGREES):
        s = slope_of_degrees(a)
        off = -s * s if k != 2 else -s * s + 3
        lines.append(Line(s, off))
    ls = verify_general_position(lines)
    with pytest.raises(NotCapOrCup):
        validate_frame(ls, IDS)


def test_apex_and_endpoints(cup_frame):
    for j in (1, 2, 3):
        assert cup_frame.apex(j) == line_intersection(
            cup_frame.line(2 * j - 1), cup_frame.line(2 * j))
    cfg = config_from_params(
        cup_frame, [Fraction(k) for k in (0, 1, 2, 3, 4, 5)])
    for j in (1, 2, 3):
        assert cup_frame.line(2 * j - 1).contains(cfg.edges[j - 1].p)
        assert cup_frame.line(2 * j).contains(cfg.edges[j - 1].q)


def test_validate_config_rule_i_failure(cup_frame):
    params = []
    for j in (1, 2, 3):
        ax = cup_frame.apex(j).x
        params += [ax + 1, ax + 2]       # both endpoints right of the apex
    verdict = validate_config(cup_frame, config_from_params(cup_frame, params))
    assert rule_failures(verdict, "i") == {("i", 1), ("i", 2), ("i", 3)}
    # an edge through its apex (the apex is its endpoint on l_{2j}) and a
    # vertical edge fail rule (i) whichever side the rule asks for
    for j in (1, 2):
        ax = cup_frame.apex(j).x
        for u, t in ((ax - 1, ax), (ax + 1, ax + 1)):
            params = [ax - 1, ax + 1] * 3
            params[2 * (j - 1):2 * j] = [u, t]
            verdict = validate_config(
                cup_frame, config_from_params(cup_frame, params))
            assert ("i", j) in verdict.failures


def test_validate_config_missing_crossing(cup_frame):
    params = []
    for j in (1, 2, 3):
        ax = cup_frame.apex(j).x
        params += [ax - Fraction(1, 1000), ax + Fraction(1, 1000)]
    verdict = validate_config(cup_frame, config_from_params(cup_frame, params))
    rule_iii = rule_failures(verdict, "iii", "iii-missing")
    assert rule_iii
    assert all(kind == "iii-missing" for kind, _ in rule_iii)


def wide_config(frame):
    """Every edge from left of all 15 crossings to right of them."""
    xs = [p.x for p in frame.sub.intersection_points()]
    return config_from_params(frame, [min(xs) - 1, max(xs) + 1] * 3)


def test_validate_config_hull_rule(cup_frame):
    # an edge crossing the whole frame plainly meets the hull of crossings
    verdict = validate_config(cup_frame, wide_config(cup_frame))
    assert {("ii", 1), ("ii", 2)} <= rule_failures(verdict, "ii")


def test_validate_config_lists_every_failing_rule(cup_frame):
    # the wide configuration fails rules (i), (ii) and (iii) at once; the
    # verdict names each failing (rule, edge), rule by rule and then edge
    # by edge
    verdict = validate_config(cup_frame, wide_config(cup_frame))
    assert verdict.failures == (("i", 1), ("i", 3), ("ii", 1), ("ii", 2),
                                ("iii", 1), ("iii", 2), ("iii", 3))


def test_validate_config_reports_an_endpoint_off_its_line_alone(cup_frame):
    # the wide configuration fails three rules, but with edge 2's end on
    # l_3 moved off that line the verdict names the incidence failure only
    edges = list(wide_config(cup_frame).edges)
    p, q = edges[1].p, edges[1].q
    edges[1] = Segment(Point(p.x, p.y + 1), q)
    assert validate_config(cup_frame, TripleEdgeConfig(tuple(edges))) == \
        ConfigVerdict(False, (("incidence", 2),))


def test_validate_config_builds_the_frame_hull_once(monkeypatch, rng):
    calls = []
    real_hull = unstretch.convex_hull

    def counting_hull(points):
        calls.append(len(points))
        return real_hull(points)

    monkeypatch.setattr(unstretch, "convex_hull", counting_hull)
    frame = validate_frame(angle_lineset(DOUBLING_DEGREES, cup=True), IDS)
    fresh = validate_frame(angle_lineset(DOUBLING_DEGREES, cup=True), IDS)
    for _ in range(100):
        params = [frame.apex(j).x + Fraction(int(v), 4)
                  for j in (1, 2, 3) for v in rng.integers(-16, 16, size=2)]
        validate_config(frame, config_from_params(frame, params))
    # each frame builds its hull once, when it is validated
    assert calls == [15, 15]
    # the kept hull is no field: equality and hash ignore it
    assert frame == fresh and hash(frame) == hash(fresh)


@pytest.mark.parametrize("kind", ["cup", "cap"])
def test_float_hull_screen_rejects_only_exact_rule_ii_failures(
        kind, cup_frame, cap_frame, rng):
    frame = cup_frame if kind == "cup" else cap_frame
    screen = _FrameFloats(frame)
    columns, hull_met = [], []
    for _ in range(300):
        # endpoints a few units either side of each apex; the exact check
        # sees the same float values the screen sees, as in the search
        xs = [float(frame.apex(j).x) + off
              for j in (1, 2, 3) for off in rng.uniform(-4, 4, size=2)]
        cfg = config_from_params(frame, [Fraction(x) for x in xs])
        hull_met.append(bool(rule_failures(validate_config(frame, cfg),
                                           "ii")))
        columns.append(xs)
    xs = np.array(columns).T
    rejected = screen.clearly_meets_hull(xs[0::2], xs[1::2])
    for k in np.flatnonzero(rejected):
        assert hull_met[k], columns[k]
    # both outcomes occur, so a screen rejecting everything would fail
    assert 0 < rejected.sum() and sum(hull_met) < 300


@pytest.mark.parametrize("kind", ["cup", "cap"])
def test_float_clip_gives_the_exact_rule_ii_verdict_off_the_boundary(
        kind, cup_frame, cap_frame, rng):
    # the screen's batch clip against the exact clip, edge by edge,
    # wherever the exact overlap is 0 or exceeds 1e-6 of the edge's
    # parameter range
    frame = cup_frame if kind == "cup" else cap_frame
    screen = _FrameFloats(frame)
    columns = []
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-2, 2)
        columns.append([float(frame.apex(j).x) + off * scale
                        for j in (1, 2, 3)
                        for off in rng.uniform(-4, 4, size=2)])
    xs = np.array(columns).T
    float_overlap = screen._hull_overlap(xs[0::2], xs[1::2])
    compared = {False: 0, True: 0}
    for k, col in enumerate(columns):
        cfg = config_from_params(frame, [Fraction(x) for x in col])
        for j, e in enumerate(cfg.edges):
            iv = clip_to_halfplanes(frame.hull_halfplanes, e.p.homogeneous,
                                    e.q.homogeneous)
            overlap = 0 if iv is None else (Fraction(*iv[1])
                                            - Fraction(*iv[0]))
            if 0 < overlap <= Fraction(1, 10**6):
                continue
            assert (float_overlap[j, k] > 1e-9) == (overlap > 0), (kind,
                                                                   col)
            compared[overlap > 0] += 1
    # both verdicts are reached often
    assert min(compared.values()) >= 100, compared


def reference_clearly_meets_hull(geo, u, t):
    """_FrameFloats.clearly_meets_hull as it was, one candidate at a time
    with the float clip_to_halfplanes: the reference the batch screen must
    match verdict for verdict."""
    for j in (1, 2, 3):
        px = float(u[j - 1])
        py = float(geo.s[2 * j - 2] * u[j - 1] - geo.b[2 * j - 2])
        qx = float(t[j - 1])
        qy = float(geo.s[2 * j - 1] * t[j - 1] - geo.b[2 * j - 1])
        iv = clip_to_halfplanes(geo.hull_edges, (px, py, 1.0),
                                (qx, qy, 1.0))
        if iv is not None:
            (n0, d0), (n1, d1), _, _ = iv
            if n1 / d1 - n0 / d0 > 1e-9:
                return True
    return False


def assert_screen_matches_reference(geo, u, t):
    got = geo.clearly_meets_hull(u, t)
    want = [reference_clearly_meets_hull(geo, u[:, k], t[:, k])
            for k in range(u.shape[1])]
    assert got.dtype == bool and got.tolist() == want
    return got


@pytest.mark.parametrize("name", ["cup_frame", "cap_frame"])
def test_hull_screen_is_bit_identical_to_the_reference(request, name):
    # every column of a sampled and a perturbed batch, those with fewer
    # than three feasible edges included: _solve_edge leaves u at the apex
    # abscissa on an edge with no feasible u, an edge that starts at a
    # vertex of the hull, where the float verdicts are arbitrary and the
    # batch must repeat them
    geo = _FrameFloats(request.getfixturevalue(name))
    rng = np.random.default_rng(30)
    t = geo.sample_triples(rng, 3000)
    _, feasible = solve_every_edge(geo, t)
    near = t[:, np.argsort(-feasible, kind="stable")[:40]]
    t = np.concatenate([t, geo.perturb_triples(rng, near, 3000)], axis=1)
    u, feasible = solve_every_edge(geo, t)
    at_apex = (u == geo.apex[:, :1]).any(axis=0)
    got = assert_screen_matches_reference(geo, u, t)
    for verdicts in (got[:3000], got[3000:], got[at_apex]):
        assert set(verdicts.tolist()) == {False, True}
    empty = np.empty((3, 0))
    assert geo.clearly_meets_hull(empty, empty).shape == (0,)


def test_hull_screen_matches_the_reference_at_its_edge_cases(cup_frame):
    # small coefficients, so that every value below is exact: all three
    # edges run from (u, 0) on y = 0 to (t, t) on y = x, and the hull is
    # the box 0 <= y <= c, -10 <= x <= 10
    geo = _FrameFloats(cup_frame)
    geo.s = np.array([0.0, 1.0] * 3)
    geo.b = np.zeros(6)
    box = [(0.0, 1.0, 0.0), (1.0, 0.0, 10.0), (-1.0, 0.0, 10.0)]
    # with c = 1e-9 the edge from (0, 0) to (t, t) leaves y <= c at
    # parameter c / t exactly, the overlap: 1e-9 itself is not enough
    geo.hull_edges = box + [(0.0, -1.0, 1e-9)]
    t = np.array([[1.0, 0.5, 2.0]] * 3)
    got = assert_screen_matches_reference(geo, np.zeros_like(t), t)
    assert got.tolist() == [False, True, False]
    # the edge on x = 20 has both ends outside x <= 10, parallel to it,
    # and would overlap y <= 1 by 1/20 of its range without that side
    geo.hull_edges = box + [(0.0, -1.0, 1.0)]
    u = t = np.array([[20.0, 0.5]] * 3)
    got = assert_screen_matches_reference(geo, u, t)
    assert got.tolist() == [False, True]
    # batches of one column and of none: the bounds are updated in place
    # on (3, 1) and (3, 0) arrays
    for col, want in ((0, [False]), (1, [True])):
        got = assert_screen_matches_reference(geo, u[:, col:col + 1],
                                              t[:, col:col + 1])
        assert got.tolist() == want
    got = assert_screen_matches_reference(geo, u[:, :0], t[:, :0])
    assert got.shape == (0,)


def test_chain_equal_angles_contradiction():
    cv = chain_from_parameters(["0.5235987755982988"] * 5, 5, [1, 1, 1])
    assert sine_hypothesis_holds(cv)
    with mpmath.workdps(40):
        assert mpmath.almosteq(cv.b[0], 3, rel_eps=mpmath.mpf("1e-12"))
    assert lemma24_check(cv) == Lemma24Result.CONTRADICTION


def test_chain_small_tail_angles_contradiction():
    tail = [mpmath.radians(10)] * 5
    cv = chain_from_parameters(tail, 1, ["0.1", "0.1", "0.1"])
    assert lemma24_check(cv) == Lemma24Result.CONTRADICTION
    with mpmath.workdps(40):
        margin = cv.b[0] - cv.r[2]
        assert abs(float(margin) - 0.0813) < 1e-3


def test_chain_hypothesis_failure():
    tail = [mpmath.radians(d) for d in (20, 5, 30, 10, 40)]
    cv = chain_from_parameters(tail, 1, [1, 1, 1])
    assert not sine_hypothesis_holds(cv)
    with pytest.raises(HypothesisFail):
        lemma24_check(cv)


def test_chain_indeterminate_band():
    # r = 0 and equal angles force b1 - r3 == a3 exactly: inside the guard
    cv = chain_from_parameters(["0.5235987755982988"] * 5, 5, [0, 0, 0])
    assert lemma24_check(cv) == Lemma24Result.INDETERMINATE


def test_random_hypothesis_chains_never_consistent(rng):
    for _ in range(2000):
        tail = sorted(rng.uniform(0.02, 0.6, size=5), reverse=True)
        a3 = float(rng.uniform(0.1, 10))
        r = [float(x) for x in rng.uniform(0.0, 5.0, size=3)]
        cv = chain_from_parameters([f"{x:.17g}" for x in tail], a3, r)
        if not sine_hypothesis_holds(cv):
            continue
        assert lemma24_check(cv) != Lemma24Result.CONSISTENT


@pytest.fixture
def fallback_spy(monkeypatch):
    """The chains that lemma24_check hands to its DPS-digit path."""
    seen = []
    real = unstretch._guarded_verdict

    def spy(cv):
        seen.append(cv)
        return real(cv)

    monkeypatch.setattr(unstretch, "_guarded_verdict", spy)
    return seen


def outcome(check, cv):
    """check(cv), or the text of the HypothesisFail it raises."""
    try:
        return check(cv)
    except HypothesisFail as exc:
        return str(exc)


GUARD = float(unstretch.GUARD_BAND)
NEAR_GUARD_TAIL = ["0.3", "0.25", "0.2", "0.15", "0.1"]


# _float_verdict's error bound on this chain's margin is about 3.6e-13:
# 1e-16 from the guard is within it, 1e-12 is not
@pytest.mark.parametrize("margin, verdict", [
    (GUARD + 1e-16, Lemma24Result.CONSISTENT),
    (GUARD - 1e-16, Lemma24Result.INDETERMINATE),
    (-GUARD + 1e-16, Lemma24Result.INDETERMINATE),
    (-GUARD - 1e-16, Lemma24Result.CONTRADICTION),
])
def test_margins_at_the_guard_go_to_the_fallback(fallback_spy, margin,
                                                 verdict):
    cv = chain_with_margin(NEAR_GUARD_TAIL, 2, [1, "0.5"], margin)
    assert lemma24_check(cv) == verdict
    assert fallback_spy == [cv]


@pytest.mark.parametrize("r", [[1, 1, 1], [0, 0, 0]])
def test_tied_sines_go_to_the_fallback(fallback_spy, r):
    # equal tail angles tie four sine comparisons; r = 0 also puts the
    # margin at 0, inside the guard
    cv = chain_from_parameters(["0.5235987755982988"] * 5, 5, r)
    want = (Lemma24Result.CONTRADICTION if r[0] else
            Lemma24Result.INDETERMINATE)
    assert lemma24_check(cv) == want
    assert fallback_spy == [cv]


def test_clear_chains_are_decided_in_float(fallback_spy):
    far = [chain_with_margin(NEAR_GUARD_TAIL, 2, [1, "0.5"], m)
           for m in (GUARD + 1e-12, -GUARD - 1e-12, 0.5, -0.5)]
    assert [lemma24_check(cv) for cv in far] == [
        Lemma24Result.CONSISTENT, Lemma24Result.CONTRADICTION] * 2
    failing = chain_from_parameters(
        [mpmath.radians(d) for d in (20, 5, 30, 10, 40)], 1, [1, 1, 1])
    with pytest.raises(HypothesisFail, match="no monotone sine ordering"):
        lemma24_check(failing)
    assert fallback_spy == []


@pytest.mark.parametrize("cv", [
    # a3 is finite at DPS digits but not as a float
    chain_from_parameters(NEAR_GUARD_TAIL, "1e400", [1, 1, 1]),
    # alpha_1 lies within 1e-10 of pi, where its sine is about 1e-10 and
    # the float sine's error, a few ulps of pi, is too large a share of it
    chain_from_parameters(["3e-11", "2.5e-11", "1.5e-11", "1e-11", "5e-12"],
                          1, [1, 1, 1]),
    # b3 = sin(alpha_6) / sin(alpha_5) * a3 overflows in float64
    chain_from_parameters(["0.1", "0.2", "0.3", "0.4", "0.5"], "1.7e308",
                          [1, 1, 1]),
    # sin(alpha_6) is subnormal, below the smallest normal float, so the
    # float path refuses it; the DPS-digit path finds a contradiction.  At
    # 1e-310 the sines' relative error bound alone would let it decide
    chain_from_parameters(["0.5", "0.4", "0.3", "0.2", "1e-320"], 1,
                          [1, 1, 1]),
    chain_from_parameters(["0.5", "0.4", "0.3", "0.2", "1e-310"], 1,
                          [1, 1, 1]),
])
def test_chains_the_float_path_refuses_go_to_the_fallback(fallback_spy, cv):
    assert unstretch._float_verdict(cv) is None
    got = outcome(lemma24_check, cv)
    assert fallback_spy == [cv]
    assert got == outcome(unstretch._guarded_verdict, cv)


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(tail=st.lists(st.floats(0.01, 0.7), min_size=5, max_size=5,
                     unique=True),
       order=st.sampled_from(["down", "up", "tie", "any"]),
       a3=st.floats(1.0, 10.0),
       r=st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3),
       near=st.none() | st.tuples(st.sampled_from([GUARD, -GUARD]),
                                  st.floats(-1e-9, 1e-9)))
def test_float_verdicts_agree_with_the_guarded_path(tail, order, a3, r,
                                                    near):
    # sorted tails satisfy the ordering unless alpha_1 is too small, a
    # repeated angle ties two sines, and an unsorted tail mostly fails
    if order != "any":
        tail = sorted(tail, reverse=order != "up")
    if order == "tie":
        tail[2] = tail[1]
    tail = [repr(x) for x in tail]
    cv = (chain_from_parameters(tail, a3, r) if near is None else
          chain_with_margin(tail, a3, r[:2], near[0] + near[1]))
    fast = outcome(unstretch._float_verdict, cv)
    if fast is not None:
        assert fast != Lemma24Result.INDETERMINATE
        assert fast == outcome(unstretch._guarded_verdict, cv)


def test_math_sin_is_within_the_assumed_ulps():
    # _float_verdict's error bound assumes math.sin within _SIN_ULPS units
    # in the last place of its result, over [0, pi], and the DPS-digit sine
    # within 2**-190 of the sine, relative
    rng = np.random.default_rng(21)
    near_pi = math.pi - 10.0 ** rng.uniform(-16, -1, 2000)
    xs = np.concatenate([rng.uniform(0.0, math.pi, 6000),
                         10.0 ** rng.uniform(-300, 0, 2000), near_pi,
                         [0.0, math.pi, math.nextafter(math.pi, 0.0),
                          math.ulp(0.0)]])
    worst = 0.0
    for x in map(float, xs):
        assert 0.0 <= x <= math.pi
        with mpmath.workdps(unstretch.DPS):
            exact = mpmath.sin(x)
        m = math.sin(x)
        with mpmath.workdps(unstretch.DPS + 20):
            worst = max(worst, float(abs(mpmath.mpf(m) - exact)
                                     / math.ulp(m)))
            if exact:
                assert abs(mpmath.sin(x) - exact) <= \
                    mpmath.mpf(2) ** -190 * abs(exact)
    assert worst <= unstretch._SIN_ULPS


def test_sort4_is_the_column_sort(rng):
    # the search's breakpoint distances: non-negative, many zeros and ties
    d = rng.uniform(0.0, 3.0, size=(4, 5000)).round(1)
    d[rng.uniform(size=d.shape) < 0.3] = 0.0
    want = np.sort(d, axis=0)
    got = unstretch._sort4(d, np.empty(d.shape[1]))
    assert got.tobytes() == want.tobytes()


def reference_solve_edge(geo, j, t):
    """_FrameFloats._solve_edge as plain array expressions, one temporary
    per operation: the reference the in-place solver must match bit for
    bit (the breakpoint sort is np.sort, which _sort4 equals here)."""
    i = unstretch._PREV[j]
    ta = t[j - 1]
    tprev = t[i - 1]
    ax, ay = geo.apex[j - 1]
    so, bo = geo.s[2 * j - 2], geo.b[2 * j - 2]
    se, be = geo.s[2 * j - 1], geo.b[2 * j - 1]
    si, bi = geo.s[2 * i - 1], geo.b[2 * i - 1]
    axi = geo.apex[i - 1, 0]
    ya = se * ta - be

    c1 = so * (ta - ax) - ya + ay
    c0 = -bo * (ta - ax) + ya * ax - ay * ta
    d1 = so - si
    d0 = bi - bo
    v_a = ya - si * ta + bi
    e1 = -v_a + d1 * (ta - tprev)
    e0 = v_a * tprev + d0 * (ta - tprev)
    side = np.sign(ax - ta)

    def root(a, b):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(a != 0, -b / np.where(a != 0, a, 1.0), np.nan)
        return r

    roots = np.stack([root(c1, c0), root(d1 * np.ones_like(c0), d0),
                      root(e1, e0),
                      root(d1 * np.ones_like(c0), d0 - v_a)])
    with np.errstate(invalid="ignore"):
        dist = (roots - ax) * side
    dist = np.sort(np.where(np.isfinite(dist) & (dist > 0), dist, 0.0),
                   axis=0)
    mids = np.empty((7, t.shape[1]))
    prev = np.zeros(t.shape[1])
    for k in range(4):
        mids[k] = (prev + dist[k]) / 2
        prev = dist[k]
    mids[4] = 2 * dist[3] + geo.radius
    mids[5] = geo.radius * 1e-3
    mids[6] = geo.radius * 1e2
    u_test = ax + side * mids

    ok = np.ones_like(u_test, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = -1.0 if j in (1, 3) else 1.0
        ok &= (c1 * u_test + c0) * (-side) * want > 0
        v_p = d1 * u_test + d0
        ok &= v_p * v_a < 0
        denom = v_p - v_a
        cx = (-u_test * v_a + v_p * ta) / denom
        lo = np.minimum(axi, cx)
        hi = np.maximum(axi, cx)
        ok &= np.isfinite(cx) & (lo <= tprev) & (tprev <= hi)
    ok &= side != 0
    any_ok = ok.any(axis=0)
    first = np.argmax(ok, axis=0)
    return u_test[first, np.arange(u_test.shape[1])], any_ok


def assert_solver_matches_reference(geo, t):
    for j in (1, 2, 3):
        u, ok = geo._solve_edge(j, t)
        want_u, want_ok = reference_solve_edge(geo, j, t)
        assert ok.tobytes() == want_ok.tobytes(), j
        assert u[ok].tobytes() == want_u[ok].tobytes(), j


@pytest.mark.parametrize("name", ["cup_frame", "cap_frame"])
def test_solve_edge_is_bit_identical_to_the_reference(request, name):
    geo = _FrameFloats(request.getfixturevalue(name))
    rng = np.random.default_rng(25)
    t = geo.sample_triples(rng, 20_000)
    _, feasible = solve_every_edge(geo, t)
    near = t[:, np.argsort(-feasible, kind="stable")[:40]]
    t = np.concatenate([t, geo.perturb_triples(rng, near, 20_000)], axis=1)
    assert_solver_matches_reference(geo, t)


def test_solve_edge_matches_the_reference_on_degenerate_columns(cup_frame):
    # small integer coefficients, so that every value below is exact; the
    # solver reads only these fields, whatever frame they come from
    geo = _FrameFloats(cup_frame)
    geo.s = np.array([2.0, 1.0, 3.0, -1.0, 5.0, 4.0])
    geo.b = np.array([0.0, 0.0, 1.0, 2.0, -1.0, 3.0])
    geo.apex = np.array([[0.0, -3.0], [1.0, 2.0], [-2.0, 1.0]])
    geo.radius = 8.0
    cols = [
        (0.0, 5.0, 7.0),     # t1 on the apex abscissa: side == 0 on edge 1
        (3.0, 5.0, 7.0),     # c1 == 3 - 3 == 0 on edge 1
        # e1 == 0 on edge 1: with ta = 2, v_a = 2 - 4*2 + 3 = -3 and
        # d1 = 2 - 4 = -2, so e1 = 3 - 2*(2 - t3) vanishes at t3 = 1/2
        (2.0, 5.0, 0.5),
        # abscissas near the float range: products overflow, and the
        # crossing abscissa of rule (iii) comes out infinite
        (1e300, 5.0, 7.0), (-1e300, -1e299, 7.0), (2.0, 1e300, -1e300),
        (-3.0, 4.0, 1e307), (1e307, -1e307, 1e307),
    ]
    t = np.array(cols).T
    rng = np.random.default_rng(26)
    t = np.concatenate([t, rng.integers(-9, 10, size=(3, 2000)) / 2.0],
                       axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_solver_matches_reference(geo, t)
        # d1 == so - si == 0 on every edge, l1 || l6, l3 || l2 and
        # l5 || l4: no scalar root
        geo.s = np.array([2.0, 3.0, 3.0, 5.0, 5.0, 2.0])
        assert_solver_matches_reference(geo, t)


def reference_solve_batch(geo, t):
    """_FrameFloats.solve_batch from the full count, all three edges run on
    every column: the columns of count 3 with their u, and the first 40
    columns by falling count, each count in index order."""
    u, count = solve_every_edge(geo, t)
    full = np.flatnonzero(count == 3)
    keep = np.concatenate([np.flatnonzero(count == c)
                           for c in (3, 2, 1, 0)])[:40]
    return (full, u[:, full], keep), count


@pytest.mark.parametrize("name", ["cup_frame", "cap_frame"])
def test_cascade_matches_the_full_count(request, name):
    geo = _FrameFloats(request.getfixturevalue(name))
    rng = np.random.default_rng(32)
    prefix = unstretch._COUNTED_PREFIX
    sampled = geo.sample_triples(rng, 20_000)
    count = solve_every_edge(geo, sampled)[1]
    near = sampled[:, np.argsort(-count, kind="stable")[:40]]
    batches = {
        "sampled": sampled,
        "perturbed": geo.perturb_triples(rng, near, 20_000),
        "search": np.concatenate(
            [sampled[:, :12_000], geo.perturb_triples(rng, near, 8_000)],
            axis=1),
        "short": sampled[:, :prefix // 4],
        # the lowest counts first, so that the prefix cannot fill the 40
        "low first": sampled[:, np.argsort(count, kind="stable")],
    }
    paths = {}
    for batch, t in batches.items():
        want, count = reference_solve_batch(geo, t)
        full, u, ok1 = geo.solve_batch(t)
        got = full, u, geo._promising(t, ok1, full)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), batch
        # which count the 40 come from: the columns of count 3 alone, the
        # prefix, or the whole batch
        short = 40 - len(want[0])
        paths[batch] = ("three" if short <= 0 else "prefix"
                        if np.count_nonzero(count[:prefix] == 2) >= short
                        else "whole batch")
    assert paths["low first"] == "whole batch"
    assert paths["sampled"] == "prefix"


def test_sample_triples_draws_the_signs_of_rng_choice(cup_frame):
    # the triples and the generator state after them, against the draws
    # of exp(uniform * log(10)) offsets and rng.choice([-1.0, 1.0]) signs
    geo = _FrameFloats(cup_frame)
    got_rng, want_rng = (np.random.default_rng(33) for _ in range(2))
    for n in (0, 1, 7, 20_000):
        got = geo.sample_triples(got_rng, n)
        off = np.exp(want_rng.uniform(-4, 2.5, size=(3, n))
                     * math.log(10.0)) * geo.radius
        sign = want_rng.choice([-1.0, 1.0], size=(3, n))
        want = geo.apex[:, :1] + sign * off
        assert got.shape == (3, n) and got.tobytes() == want.tobytes(), n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def exact_edge(geo, j, ta, tprev):
    """Edge j's rules (i) and (iii) in Fraction arithmetic on the exact
    values of the frame's floats and of the Fractions ta and tprev: the
    sign of ax - ta, the verdicts as a function of u, and the distances
    beyond the apex of the roots of c1*u + c0, of d1*u + d0, and of the
    u where the crossing abscissa meets tprev or has its pole."""
    i = unstretch._PREV[j]
    ax, ay = map(Fraction, geo.apex[j - 1])
    so, bo = Fraction(geo.s[2 * j - 2]), Fraction(geo.b[2 * j - 2])
    se, be = Fraction(geo.s[2 * j - 1]), Fraction(geo.b[2 * j - 1])
    si, bi = Fraction(geo.s[2 * i - 1]), Fraction(geo.b[2 * i - 1])
    axi = Fraction(geo.apex[i - 1, 0])
    ya = se * ta - be
    c1 = so * (ta - ax) - ya + ay
    c0 = -bo * (ta - ax) + ya * ax - ay * ta
    d1, d0 = so - si, bi - bo
    v_a = ya - si * ta + bi
    e1 = -v_a + d1 * (ta - tprev)
    e0 = v_a * tprev + d0 * (ta - tprev)
    side = (ax > ta) - (ax < ta)
    want = -1 if j in (1, 3) else 1

    def verdicts(u):
        v_p = d1 * u + d0
        if v_p == v_a:
            return (c1 * u + c0) * -side * want > 0, False
        cx = (v_p * ta - u * v_a) / (v_p - v_a)
        return ((c1 * u + c0) * -side * want > 0,
                v_p * v_a < 0 and min(axi, cx) <= tprev <= max(axi, cx))

    roots = [-b / a for a, b in ((c1, c0), (d1, d0), (e1, e0),
                                 (d1, d0 - v_a)) if a != 0]
    return side, verdicts, [(r - ax) * side for r in roots]


@pytest.mark.parametrize("name", ["cup_frame", "cap_frame"])
def test_five_candidates_cover_the_cells_of_the_dropped_two(request, name):
    # _solve_edge once also tried u at radius * 1e-3 and radius * 1e2
    # beyond the apex; each of those lies inside a cell between the exact
    # breakpoints that one of the five candidates holds, with the same
    # exact verdicts on rules (i) and (iii)
    geo = _FrameFloats(request.getfixturevalue(name))
    rng = np.random.default_rng(27)
    t = geo.sample_triples(rng, 200)
    _, feasible = solve_every_edge(geo, t)
    near = t[:, np.argsort(-feasible, kind="stable")[:20]]
    t = np.concatenate([t, geo.perturb_triples(rng, near, 200)], axis=1)
    seen = set()
    for j in (1, 2, 3):
        # the five candidate rows that _solve_edge tests, one at a time
        kept = np.array([u for u, _ in geo._candidates(j, t)])
        assert kept.shape == (5, t.shape[1])
        ax = geo.apex[j - 1, 0]
        for col in range(t.shape[1]):
            side, verdicts, dists = exact_edge(
                geo, j, Fraction(t[j - 1, col]),
                Fraction(t[unstretch._PREV[j] - 1, col]))
            assert side != 0

            def cell(u):
                d = (u - Fraction(ax)) * side
                if d <= 0 or d in dists:
                    return None
                return sum(b < d for b in dists if b > 0)

            cells = [cell(Fraction(u)) for u in kept[:, col]]
            for mid in (geo.radius * 1e-3, geo.radius * 1e2):
                u = Fraction(ax + side * mid)
                want, c = verdicts(u), cell(u)
                reps = [Fraction(kept[k, col]) for k in range(5)
                        if cells[k] == c]
                assert c is not None and reps, (j, col, mid)
                assert all(verdicts(r) == want for r in reps), (j, col, mid)
                seen.add(want)
    assert {v[0] for v in seen} == {v[1] for v in seen} == {False, True}


def test_derive_chain_geometry(cup_frame):
    cfg = config_from_params(
        cup_frame, [Fraction(k, 7) for k in (-9, 5, 11, -4, 2, 8)])
    cv = derive_chain(cup_frame, cfg)
    with mpmath.workdps(55):
        assert mpmath.almosteq(mpmath.fsum(cv.alpha), mpmath.pi,
                               rel_eps=mpmath.mpf("1e-50"))
        # r are the side lengths of the even-line triangle, exactly
        b24 = line_intersection(cup_frame.line(2), cup_frame.line(4))
        b46 = line_intersection(cup_frame.line(4), cup_frame.line(6))
        d2 = (b24.x - b46.x) ** 2 + (b24.y - b46.y) ** 2
        assert mpmath.almosteq(cv.r[0] ** 2,
                               mpmath.mpf(d2.numerator) / d2.denominator,
                               rel_eps=mpmath.mpf("1e-50"))


def test_derive_chain_translation_invariant(cup_frame):
    dx, dy = Fraction(13, 3), Fraction(-7, 5)
    moved = verify_general_position(
        [Line(l.slope, l.dual_offset + l.slope * dx - dy)
         for l in cup_frame.lines])
    frame2 = validate_frame(moved, IDS)
    cfg1 = config_from_params(
        cup_frame, [Fraction(k, 7) for k in (-9, 5, 11, -4, 2, 8)])
    cfg2 = config_from_params(
        frame2, [Fraction(k, 7) + dx for k in (-9, 5, 11, -4, 2, 8)])
    cv1 = derive_chain(cup_frame, cfg1)
    cv2 = derive_chain(frame2, cfg2)
    with mpmath.workdps(50):
        for x, y in zip(cv1.a + cv1.b + cv1.r, cv2.a + cv2.b + cv2.r):
            assert mpmath.almosteq(x, y, rel_eps=mpmath.mpf("1e-45"))


def test_feasibility_search_finds_without_hull_rule(cup_frame):
    cfg = feasibility_search(cup_frame, samples=300_000, seed=5,
                             skip_properties=frozenset({"ii"}))
    assert cfg is not None
    verdict = validate_config(cup_frame, cfg)
    assert all(rule == "ii" for rule, _ in verdict.failures), verdict.failures
    assert config_edges_disjoint(cfg)
    cv = derive_chain(cup_frame, cfg)
    assert lemma24_check(cv) == Lemma24Result.CONTRADICTION


def exact_sine_ordering(frame):
    """The frame's sine ordering decided on rationals: for slopes s_i =
    tan(theta_i), sin^2(theta_j - theta_i) = (s_j - s_i)^2 / ((1 + s_i^2)
    (1 + s_j^2)), alpha_k = theta_k - theta_(k-1) for k >= 2 and alpha_1 =
    pi - (theta_6 - theta_1) has the sine of theta_6 - theta_1.  Every
    alpha lies in (0, pi), so the squares order as the sines.  Returns
    "down", "up" or None."""
    s = [l.slope for l in frame.lines]

    def sin2(i, j):
        return (s[j] - s[i]) ** 2 / ((1 + s[i] ** 2) * (1 + s[j] ** 2))

    q = [sin2(0, 5)] + [sin2(k - 1, k) for k in range(1, 6)]
    if q[0] >= q[1] >= q[2] >= q[3] >= q[4] >= q[5]:
        return "down"
    if q[1] <= q[2] <= q[3] <= q[4] <= q[5] <= q[0]:
        return "up"
    return None


def test_sine_ordering_of_control_chains_is_the_exact_one(cup_frame):
    # derive_chain's 60-digit sines against the exact squared sines, on the
    # chains of rule-(ii)-skipped searches on cup frames with growing gaps,
    # and on their mirror images x -> -x, cup frames whose gaps shrink.
    # The control search finds nothing there, and alpha comes from the
    # frame's slopes alone, so a configuration around the apexes stands in
    rng = np.random.default_rng(31)
    orderings = []
    for frame in [cup_frame] + [random_frame(rng, cup=True)
                                for _ in range(2)]:
        cfg = feasibility_search(frame, samples=300_000, seed=0,
                                 skip_properties=frozenset({"ii"}))
        assert cfg is not None
        mirror = validate_frame(verify_general_position(
            [Line(-l.slope, l.dual_offset) for l in frame.lines]), IDS)
        around = [mirror.apex(j).x + d for j in (1, 2, 3) for d in (-1, 1)]
        for f, c in ((frame, cfg),
                     (mirror, config_from_params(mirror, around))):
            exact = exact_sine_ordering(f)
            assert sine_hypothesis_holds(derive_chain(f, c)) == \
                (exact is not None), f
            orderings.append(exact)
    # both orderings occur, so that every comparison of _sine_ordering
    # decides some verdict
    assert set(orderings) == {"down", "up"}


def test_feasibility_search_full_rules_empty(cup_frame, cap_frame):
    assert feasibility_search(cup_frame, samples=120_000, seed=0) is None
    assert feasibility_search(cap_frame, samples=120_000, seed=0) is None
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            feasibility_search(cup_frame, samples=samples, seed=0)


def test_feasibility_search_drops_no_rule_but_rule_ii(cup_frame):
    for rules in ({"i"}, {"iii"}, {"i", "ii"}, {"iv"}):
        with pytest.raises(ValueError, match="skip_properties"):
            feasibility_search(cup_frame, samples=1000, seed=0,
                               skip_properties=frozenset(rules))


def test_feasibility_search_deterministic(cup_frame):
    a = feasibility_search(cup_frame, samples=60_000, seed=3,
                           skip_properties=frozenset({"ii"}))
    b = feasibility_search(cup_frame, samples=60_000, seed=3,
                           skip_properties=frozenset({"ii"}))
    assert a is not None and b is not None
    assert a.edges == b.edges


@pytest.mark.parametrize("call, message", [
    (lambda: chain_from_parameters(["0.5", "0.4", "0.3", "0.2"], 1,
                                   [1, 1, 1]),
     "need alpha_2..alpha_6"),
])
def test_input_checks_raise_their_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

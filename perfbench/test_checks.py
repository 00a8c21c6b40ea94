"""The benchmark's own tests: each independent check accepts the program's
real output and rejects a known-bad one.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import checks                                     # noqa: E402
import inputs                                     # noqa: E402
from checks import CheckFailed                    # noqa: E402
from tracing import Tracer                        # noqa: E402
from workloads import hull_sides                  # noqa: E402
from treelines import (embed, geometry, io_formats, lineset,  # noqa: E402
                       ramsey, svg, unstretch)

F = Fraction


def parse(lines):
    return io_formats.parse_lines(inputs.lines_text(lines).encode())


def points_of(lines, iota, xs):
    out = []
    for v, x in enumerate(xs):
        s, b = sorted(lines)[iota[v] - 1]
        out.append((F(x), s * F(x) - b))
    return out


# the arrangement and path of acceptance criterion 7
CRIT7_LINES = [(F(-1), F(0)), (F(0), F(-1)), (F(1), F(0)), (F(3), F(1))]
CRIT7_EDGES = [(0, 1), (1, 2), (2, 3)]
CRIT7_IOTA = (1, 3, 2, 4)


def test_integer_checker_on_criterion_7_fixtures():
    good = points_of(CRIT7_LINES, CRIT7_IOTA, [-2, 2, 0, F(1, 3)])
    bad = points_of(CRIT7_LINES, CRIT7_IOTA, [-2, 2, 0, 2])
    checks.check_solution(good, CRIT7_EDGES)
    free, proper = checks.crossings(bad, CRIT7_EDGES)
    assert not free and proper == {frozenset({(0, 1), (2, 3)})}
    with pytest.raises(CheckFailed):
        checks.check_solution(bad, CRIT7_EDGES)
    # vertex on an edge: not crossing-free, yet no proper crossing
    on_edge = points_of(CRIT7_LINES, CRIT7_IOTA, [-2, 2, 0, 1])
    assert checks.crossings(on_edge, CRIT7_EDGES) == (False, set())


def test_report_check_rejects_a_wrong_verdict():
    bad = points_of(CRIT7_LINES, CRIT7_IOTA, [-2, 2, 0, 2])
    pair = {frozenset({(0, 1), (2, 3)})}
    checks.check_report(bad, CRIT7_EDGES, False, pair)
    with pytest.raises(CheckFailed):
        checks.check_report(bad, CRIT7_EDGES, True, pair)
    with pytest.raises(CheckFailed):
        checks.check_report(bad, CRIT7_EDGES, False, set())


def test_integer_checker_agrees_with_program_on_random_drawings():
    rng = np.random.default_rng(3)
    for _ in range(5):
        lines = inputs.random_lines(rng, 12)
        edges = inputs.random_tree(rng, 12)
        iota = [int(i) + 1 for i in rng.permutation(12)]
        xs = inputs.random_positions(rng, lines, 12)
        ls, tree, asg = io_formats.parse_instance(
            inputs.instance_text(lines, edges, iota).encode())
        emb = io_formats.parse_embedding(inputs.embedding_text(xs).encode(),
                                         12)
        report = embed.check_embedding(ls, tree, asg, emb)
        pts = points_of(lines, iota, xs)
        segs = [(u, v) for u, v in edges if pts[u] != pts[v]]
        proper = {frozenset({segs[a], segs[b]}) for a, b in
                  (v.witness for v in report.violations
                   if v.kind.value == "proper_cross")}
        checks.check_report(pts, edges, report.crossing_free, proper)


def test_es_bound_matches_the_binomial_definition():
    assert [checks.es_bound(n) for n in (3, 6, 7, 20, 21, 70, 71)] == \
        [3, 3, 4, 4, 5, 5, 6]
    for n in range(3, 200):
        assert checks.es_bound(n) == ramsey.mono_path_bound(n)


def test_cap_presented_as_cup_is_rejected():
    slopes = [F(k, 7) for k in range(-4, 5)]
    cap = [(s, -s * s) for s in slopes]
    cup = [(s, s * s) for s in slopes]
    checks.check_cap_cup(cap, "cap", cap)
    checks.check_cap_cup(cup, "cup", cup)
    with pytest.raises(CheckFailed):
        checks.check_cap_cup(cap, "cup", cap)
    with pytest.raises(CheckFailed):          # below the guarantee
        checks.check_cap_cup(cap, "cap", cap[:3])


def test_program_cap_cup_passes():
    rng = np.random.default_rng(4)
    lines = inputs.random_lines(rng, 20)
    kind, sub = lineset.longest_cap_cup(parse(lines))
    checks.check_cap_cup(lines, kind.value,
                         [(l.slope, l.dual_offset) for l in sub])


def test_monotone_chain_with_swapped_neighbours_is_rejected():
    rng = np.random.default_rng(5)
    lines = inputs.random_lines(rng, 30)
    slopes = {k + 1: s for k, (s, _) in enumerate(lines)}
    chain = ramsey.extract_monotone_gaps(parse(lines))
    down = chain.direction.value == "non_increasing"
    checks.check_monotone(slopes, chain.ids, down)
    ids = list(chain.ids)
    ids[1], ids[2] = ids[2], ids[1]
    with pytest.raises(CheckFailed):
        checks.check_monotone(slopes, ids, down)
    with pytest.raises(CheckFailed):          # the opposite direction
        checks.check_monotone(slopes, chain.ids, not down)


def test_gap_comparator_against_arctan():
    rng = np.random.default_rng(6)
    for _ in range(200):
        s = [F(int(v), 97) for v in rng.integers(-500, 500, size=4)]
        if s[0] == s[1] or s[2] == s[3]:
            continue
        slopes = dict(enumerate(s))
        g1 = abs(np.arctan(float(s[1])) - np.arctan(float(s[0])))
        g2 = abs(np.arctan(float(s[3])) - np.arctan(float(s[2])))
        if abs(g1 - g2) > 1e-9:
            assert checks.gap_cmp(slopes, (0, 1), (2, 3)) == \
                (1 if g1 > g2 else -1)


def test_doubling_chain_checks():
    slopes = {k + 1: inputs.slope_of_degrees(d)
              for k, d in enumerate([0, 1, 2.1, 4.3, 8.8, 17.8])}
    checks.check_doubling(slopes, [1, 2, 3, 4, 5, 6], lower=True)
    with pytest.raises(CheckFailed):
        checks.check_doubling(slopes, [1, 2, 3, 4, 5, 6], lower=False)
    wide = {1: F(-10), 2: F(0), 3: F(10)}     # span above a right angle
    with pytest.raises(CheckFailed):
        checks.check_doubling(wide, [1, 2, 3], lower=True)


def _cup_hulls(rng, n=12, c=4):
    lines = inputs.random_cup(rng, n)
    ls = parse(lines)
    cc = lineset.ColorClasses(c, n)
    return lines, ls, cc, {r: lineset.region_hull(ls, cc, r)
                           for r in lineset.all_region_indices(cc)}


def test_hull_checks():
    rng = np.random.default_rng(7)
    lines, ls, cc, hulls = _cup_hulls(rng)
    for r, h in hulls.items():
        checks.check_hull(hull_sides(h), checks.segment_samples(lines, 4, r.a,
                                                            r.b))
    r, h = next((r, h) for r, h in hulls.items() if h.bounded)
    samples = checks.segment_samples(lines, 4, r.a, r.b)
    with pytest.raises(CheckFailed):          # one side too many
        checks.check_hull(hull_sides(h), samples, max_sides=len(h.sides) - 1)
    far = [(F(10**9), F(10**9))]
    with pytest.raises(CheckFailed):          # a point outside
        checks.check_hull(hull_sides(h), samples + far)
    other = next(o for o in hulls if o != r)  # another region's segments
    with pytest.raises(CheckFailed):
        checks.check_hull(hull_sides(h), checks.segment_samples(
            lines, 4, other.a, other.b))


def test_reversal_check():
    rng = np.random.default_rng(8)
    lines, ls, cc, hulls = _cup_hulls(rng)
    a, b = inputs.random_segment(rng, lines)
    seg = geometry.Segment(geometry.Point(*a), geometry.Point(*b))
    fwd = [(t.a, t.b, t.enter, t.exit)
           for t in embed.comb_type(ls, cc, seg, hulls)]
    bwd = [(t.a, t.b, t.enter, t.exit) for t in
           embed.comb_type(ls, cc, geometry.Segment(seg.q, seg.p), hulls)]
    checks.check_reversal(fwd, bwd)
    with pytest.raises(CheckFailed):
        checks.check_reversal(fwd, [(1, 1, 1, 1)] + bwd)
    with pytest.raises(CheckFailed):
        checks.check_reversal([(1, 2, 3, 4)], [(1, 2, 3, 4)])


def test_svg_check():
    rng = np.random.default_rng(9)
    _, ls, _, hulls = _cup_hulls(rng)
    data = svg.render_svg(svg.SvgScene(lines=list(ls),
                                       hulls=list(hulls.values())))
    checks.check_svg(data)
    with pytest.raises(CheckFailed):
        checks.check_svg(data[:-20])
    with pytest.raises(CheckFailed):
        checks.check_svg(b'<svgx xmlns="http://www.w3.org/2000/svg"/>')


def _cup_frame():
    rng = np.random.default_rng(10)
    lines = inputs.random_frame_lines(rng, cup=True)
    return lines, unstretch.validate_frame(parse(lines), [1, 2, 3, 4, 5, 6])


def test_frame_expectation():
    lines, frame = _cup_frame()
    assert checks.frame_expectation(lines) == (frame.cap_cup.value,
                                               frame.variant.value)
    cap = [(s, -b) for s, b in lines]
    assert checks.frame_expectation(cap)[0] == "cap"
    flat = [(F(k), F(k * k)) for k in range(-3, 3)]   # span too wide
    with pytest.raises(CheckFailed):
        checks.frame_expectation(flat)


def test_configuration_rules():
    lines, frame = _cup_frame()
    cfg = unstretch.feasibility_search(frame, 10**6, 0,
                                       skip_properties=frozenset({"ii"}))
    assert cfg is not None
    edges = [((e.p.x, e.p.y), (e.q.x, e.q.y)) for e in cfg.edges]
    checks.check_rules_i_iii(lines, edges)
    # edge 2 ending at its apex breaks rule (i)
    apex = frame.apex(2)
    bad = list(edges)
    bad[1] = (edges[1][0], (apex.x, apex.y))
    with pytest.raises(CheckFailed):
        checks.check_rules_i_iii(lines, bad)
    # an endpoint off its line
    off = list(edges)
    off[0] = ((edges[0][0][0], edges[0][0][1] + 1), edges[0][1])
    with pytest.raises(CheckFailed):
        checks.check_rules_i_iii(lines, off)
    # endpoints swapped between two edges
    with pytest.raises(CheckFailed):
        checks.check_rules_i_iii(lines, [edges[1], edges[0], edges[2]])
    cv = unstretch.derive_chain(frame, cfg)
    checks.check_chain_angles(lines, cv.alpha)
    with pytest.raises(CheckFailed):
        checks.check_chain_angles(lines, (cv.alpha[0] + mpmath.mpf(1e-30),
                                          *cv.alpha[1:]))


def _chain(tail, a3, r):
    with mpmath.workdps(unstretch.DPS):
        tail = [mpmath.mpf(x) for x in tail]
        alpha = (mpmath.pi - mpmath.fsum(tail), *tail)
        a3 = mpmath.mpf(a3)
        return unstretch.ChainValues(alpha, (a3, a3, a3), (a3, a3, a3),
                                     tuple(mpmath.mpf(x) for x in r))


def _verdict(cv):
    try:
        return unstretch.lemma24_check(cv).value
    except unstretch.HypothesisFail:
        return None


def test_lemma_margin_of_the_wrong_sign_is_rejected():
    cv = _chain([0.5] * 5, 1.0, (2.0, 2.0, 2.0))
    want = checks.lemma_expectation(cv.alpha, cv.a[2], cv.r)
    assert want == "contradiction"
    checks.check_lemma(_verdict(cv), want)
    # negative r lengths make the margin positive: the chain is consistent
    pos = _chain([0.5] * 5, 1.0, (-5.0, -5.0, -5.0))
    assert checks.lemma_expectation(pos.alpha, pos.a[2], pos.r) == \
        "consistent"
    with pytest.raises(CheckFailed):
        checks.check_lemma("contradiction", "consistent")
    with pytest.raises(CheckFailed):
        checks.check_lemma(_verdict(pos), "consistent")
    with pytest.raises(CheckFailed):
        checks.check_lemma("indeterminate", "contradiction")


def test_lemma_hypothesis_failures_agree():
    rng = np.random.default_rng(11)
    seen = set()
    for tail, a3, r in inputs.random_chain_parameters(rng, 600):
        cv = _chain(tail, a3, r)
        got = _verdict(cv)
        checks.check_lemma(got, checks.lemma_expectation(cv.alpha,
                                                         cv.a[2], cv.r))
        seen.add(got)
    assert seen == {None, "contradiction"}
    with pytest.raises(CheckFailed):
        checks.check_lemma(None, "contradiction")


def test_tracer_spans_and_self_time():
    lines = inputs.random_lines(np.random.default_rng(12), 8)
    tracer = Tracer()
    tracer.count("io_formats.parse_lines", "bytes", lambda a, r, e: len(a[0]))
    original = lineset.line_intersection
    tracer.install()
    try:
        assert lineset.line_intersection is not original
        parse(lines)
    finally:
        tracer.uninstall()
    assert lineset.line_intersection is original
    times = tracer.self_times()
    assert times["io_formats.parse_lines"][0] == 1
    assert times["lineset.verify_general_position"][0] == 1
    assert times["geometry.line_intersection"][0] == 28
    assert tracer.counters["io_formats.parse_lines.bytes"] == \
        len(inputs.lines_text(lines).encode())
    # self times partition the time of the outermost span
    parse_span = tracer.name_id.index(tracer.names.index(
        "io_formats.parse_lines"))
    total = sum(s for _, s in times.values())
    assert total == pytest.approx(
        tracer.end[parse_span] - tracer.start[parse_span], rel=1e-9)

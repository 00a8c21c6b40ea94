"""The benchmark's three workloads.

Each workload generates its inputs from a seeded generator, hands them to
treelines as instance-format text parsed back through ``io_formats``,
then runs rounds of a fixed list of operations.  Every operation is one
call into a public function of treelines, timed on its own and tagged
with a kind.  Program functions are always called through their module
attribute (``tl.embed.solve``), so the tracer sees every call.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import mpmath

import checks
import inputs
from speed import Probe


@dataclass
class Op:
    kind: str
    start: float
    end: float
    ok: bool
    seconds: float = 0.0        # end - start at the probe's reference speed


@dataclass
class Round:
    probe: Probe
    ops: List[Op] = field(default_factory=list)
    outputs: List[object] = field(default_factory=list)
    wall: float = 0.0           # total scaled operation time
    failed: int = 0

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """Run one operation; an exception counts it as failed and its
        output as None."""
        self.probe.tick()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
        except Exception as exc:           # one failed operation, not a crash
            out, ok = None, False
            print(f"{kind} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        self.ops.append(Op(kind, t0, time.perf_counter(), ok))
        self.outputs.append(out)
        self.probe.tick()
        return out

    def scale(self) -> None:
        """Set each operation's scaled time and the round's total."""
        for op in self.ops:
            op.seconds = (op.end - op.start) * self.probe.scale(op.start,
                                                                op.end)
        self.wall = sum(op.seconds for op in self.ops)

    @property
    def raw_seconds(self) -> float:
        return sum(op.end - op.start for op in self.ops)


def _points(lines, iota, xs) -> List[checks.Pair]:
    """Vertex points of an embedding, from the benchmark's own lines."""
    out = []
    for v, x in enumerate(xs):
        s, b = lines[iota[v] - 1]
        out.append((x, s * x - b))
    return out


class Workload:
    """Inputs are made in ``__init__(tl, rng)``; ``round`` runs the fixed
    operations, ``check`` checks a round's outputs, ``details`` gives the
    workload's own rates."""

    def failed(self, rnd: Round) -> int:
        return sum(1 for op in rnd.ops if not op.ok)


# -- scan ---------------------------------------------------------------------


class Scan(Workload):
    """Every bijection of small line sets solved, then n=50 checks."""

    N5_SETS = 2
    N6_SETS = 1
    N50_CHECKS = 1
    REFINE, BUDGET = 4, 1000

    def __init__(self, tl, rng):
        self.tl = tl
        self.solve_seed = int(rng.integers(0, 2**31))
        shapes = {5: [inputs.path_edges(5), inputs.star_edges(5),
                      inputs.spider_edges()],
                  6: [inputs.star_edges(6)]}
        self.instances = []     # (lines, edges, LineSet, Tree)
        for n, sets in ((5, self.N5_SETS), (6, self.N6_SETS)):
            for _ in range(sets):
                lines = inputs.random_lines(rng, n)
                for edges in shapes[n]:
                    ls, tree, _ = tl.io_formats.parse_instance(
                        inputs.instance_text(lines, edges).encode(),
                        require_assign=False)
                    self.instances.append((lines, edges, ls, tree))
        self.checks = []        # (lines, edges, iota, xs, LineSet, Tree, ...)
        for _ in range(self.N50_CHECKS):
            lines = inputs.random_lines(rng, 50)
            edges = inputs.random_tree(rng, 50)
            iota = [int(i) + 1 for i in rng.permutation(50)]
            xs = inputs.random_positions(rng, lines, 50)
            ls, tree, asg = tl.io_formats.parse_instance(
                inputs.instance_text(lines, edges, iota).encode())
            emb = tl.io_formats.parse_embedding(
                inputs.embedding_text(xs).encode(), 50)
            self.checks.append((lines, edges, iota, xs, ls, tree, asg, emb))

    def round(self, probe: Probe) -> Round:
        tl, rnd = self.tl, Round(probe)
        for _, _, ls, tree in self.instances:
            for perm in itertools.permutations(range(1, tree.n + 1)):
                rnd.call("solve", tl.embed.solve, ls, tree,
                         tl.embed.Assignment(perm), self.REFINE, self.BUDGET,
                         self.solve_seed)
        for *_, ls, tree, asg, emb in self.checks:
            rnd.call("check", tl.embed.check_embedding, ls, tree, asg, emb)
        return rnd

    def failed(self, rnd: Round) -> int:
        """NotFound solves count as failed operations."""
        return super().failed(rnd) + sum(
            1 for op, out in zip(rnd.ops, rnd.outputs)
            if op.ok and op.kind == "solve" and not out.found)

    def check(self, rnd: Round) -> None:
        outs = iter(rnd.outputs)
        for lines, edges, _, tree in self.instances:
            for perm in itertools.permutations(range(1, tree.n + 1)):
                res = next(outs)
                if res is not None and res.found:
                    checks.check_solution(
                        _points(lines, perm, res.embedding.pos), edges)
        for lines, edges, iota, xs, *_ in self.checks:
            report = next(outs)
            if report is None:
                continue
            points = _points(lines, iota, xs)
            segs = [(u, v) for u, v in edges if points[u] != points[v]]
            proper = {frozenset({segs[a], segs[b]})
                      for a, b in (v.witness for v in report.violations
                                   if v.kind.value == "proper_cross")}
            checks.check_report(points, edges, report.crossing_free, proper)

    def details(self, ops: List[Op]) -> Dict[str, float]:
        solves = sorted(op.seconds for op in ops if op.kind == "solve")
        return {**_rate(ops, "solve", "solves_per_s"),
                "solve_p50_ms": 1e3 * solves[len(solves) // 2],
                "solve_p99_ms": 1e3 * solves[int(0.99 * len(solves))],
                **_rate(ops, "check", "checks_per_s")}


# -- extract ------------------------------------------------------------------


class Extract(Workload):
    """Cap/cup and Ramsey-chain extraction, then region hulls of cups with
    segment traversals across them, and one SVG of the scene."""

    CAPCUP_N, CAPCUP_SETS = 40, 4
    CHAIN_N, CHAIN_SETS = 80, 4
    CUP_N, CUP_CLASSES = 24, (4, 6)
    SEGMENTS = 16

    def __init__(self, tl, rng):
        self.tl = tl
        self.capcup = [self._parsed(inputs.random_lines(rng, self.CAPCUP_N))
                       for _ in range(self.CAPCUP_SETS)]
        self.chains = [self._parsed(inputs.random_lines(rng, self.CHAIN_N))
                       for _ in range(self.CHAIN_SETS)]
        self.cups = []          # (lines, c, LineSet, ColorClasses, segments)
        for c in self.CUP_CLASSES:
            lines, ls = self._parsed(inputs.random_cup(rng, self.CUP_N))
            segs = []
            for _ in range(self.SEGMENTS):
                a, b = inputs.random_segment(rng, lines)
                segs.append(tl.geometry.Segment(tl.geometry.Point(*a),
                                                tl.geometry.Point(*b)))
            self.cups.append((lines, c, ls,
                              tl.lineset.ColorClasses(c, self.CUP_N), segs))

    def _parsed(self, lines):
        return lines, self.tl.io_formats.parse_lines(
            inputs.lines_text(lines).encode())

    def round(self, probe: Probe) -> Round:
        tl, rnd = self.tl, Round(probe)
        for _, ls in self.capcup:
            rnd.call("capcup", tl.lineset.longest_cap_cup, ls)
        for _, ls in self.chains:
            rnd.call("monotone", tl.ramsey.extract_monotone_gaps, ls)
            rnd.call("doubling", tl.ramsey.extract_doubling, ls)
        scene = None
        for _, _, ls, cc, segs in self.cups:
            hulls = {r: rnd.call("hull", tl.lineset.region_hull, ls, cc, r)
                     for r in tl.lineset.all_region_indices(cc)}
            for seg in segs:
                rnd.call("traversal", tl.embed.comb_type, ls, cc, seg, hulls)
                rnd.call("traversal", tl.embed.comb_type, ls, cc,
                         tl.geometry.Segment(seg.q, seg.p), hulls)
            if scene is None:
                scene = tl.svg.SvgScene(lines=list(ls),
                                        hulls=list(hulls.values()),
                                        segments=list(segs))
        rnd.call("svg", tl.svg.render_svg, scene)
        return rnd

    def check(self, rnd: Round) -> None:
        outs = iter(rnd.outputs)
        for lines, _ in self.capcup:
            out = next(outs)
            if out is not None:
                kind, sub = out
                checks.check_cap_cup(
                    lines, kind.value,
                    [(l.slope, l.dual_offset) for l in sub])
        for lines, _ in self.chains:
            slopes = {k + 1: s for k, (s, _) in enumerate(lines)}
            mono, dbl = next(outs), next(outs)
            if mono is not None:
                checks.check_monotone(
                    slopes, mono.ids, mono.direction.value == "non_increasing")
            if dbl is not None:
                checks.check_doubling(slopes, dbl.ids,
                                      dbl.variant.value == "lower")
        for lines, c, ls, cc, segs in self.cups:
            for r in self.tl.lineset.all_region_indices(cc):
                hull = next(outs)
                if hull is not None:
                    checks.check_hull(hull_sides(hull),
                                      checks.segment_samples(lines, c,
                                                             r.a, r.b))
            for _ in segs:
                fwd, bwd = next(outs), next(outs)
                if fwd is not None and bwd is not None:
                    checks.check_reversal(
                        [(t.a, t.b, t.enter, t.exit) for t in fwd],
                        [(t.a, t.b, t.enter, t.exit) for t in bwd])
        data = next(outs)
        if data is not None:
            checks.check_svg(data)

    def details(self, ops: List[Op]) -> Dict[str, float]:
        chain_s = sum(op.seconds for op in ops
                      if op.kind in ("monotone", "doubling"))
        sets = sum(1 for op in ops if op.kind == "monotone")
        return {**_rate(ops, "capcup", "capcup_per_s"),
                "chains_per_s": sets / chain_s,
                **_rate(ops, "hull", "hulls_per_s"),
                **_rate(ops, "traversal", "traversals_per_s")}


def hull_sides(hull) -> List[Tuple[checks.Pair, checks.Pair]]:
    """A region hull's sides as (anchor, counter-clockwise direction)."""
    out = []
    for s in hull.sides:
        if s.start is not None and s.end is not None:
            out.append(((s.start.x, s.start.y),
                        (s.end.x - s.start.x, s.end.y - s.start.y)))
        elif s.start is None:   # arrives from infinity along -direction
            out.append(((s.end.x, s.end.y),
                        (-s.direction[0], -s.direction[1])))
        else:
            out.append(((s.start.x, s.start.y), s.direction))
    return out


# -- unstretch ----------------------------------------------------------------


class Unstretch(Workload):
    """Six-line frames searched for configurations, the rule-(ii)-skipped
    control search on cup frames, and a batch of synthetic lemma chains."""

    CUP_FRAMES, CAP_FRAMES = 3, 3
    SEEDS = 2
    SAMPLES = 10**6
    CHAINS = 2000

    def __init__(self, tl, rng):
        self.tl = tl
        self.frames = []        # (lines, is_cup, LineSet)
        for cup in [True] * self.CUP_FRAMES + [False] * self.CAP_FRAMES:
            lines = inputs.random_frame_lines(rng, cup)
            ls = tl.io_formats.parse_lines(inputs.lines_text(lines).encode())
            self.frames.append((lines, cup, ls))
        self.seeds = [int(s) for s in rng.integers(0, 2**31, self.SEEDS)]
        self.chains = []
        with mpmath.workdps(tl.unstretch.DPS):
            for tail, a3, r in inputs.random_chain_parameters(rng,
                                                              self.CHAINS):
                tail = [mpmath.mpf(x) for x in tail]
                alpha = (mpmath.pi - mpmath.fsum(tail), *tail)
                a3 = mpmath.mpf(a3)
                self.chains.append(tl.unstretch.ChainValues(
                    alpha, (a3, a3, a3), (a3, a3, a3),
                    tuple(mpmath.mpf(x) for x in r)))

    def _lemma(self, cv):
        u = self.tl.unstretch
        try:
            return u.lemma24_check(cv).value
        except u.HypothesisFail:
            return None

    def round(self, probe: Probe) -> Round:
        u, rnd = self.tl.unstretch, Round(probe)
        frames = [rnd.call("frame", u.validate_frame, ls, [1, 2, 3, 4, 5, 6])
                  for _, _, ls in self.frames]
        for fr in frames:
            for seed in self.seeds:
                rnd.call("search", u.feasibility_search, fr, self.SAMPLES,
                         seed)
        for fr, (_, cup, _) in zip(frames, self.frames):
            if cup:
                cfg = rnd.call("control", u.feasibility_search, fr,
                               self.SAMPLES, self.seeds[0],
                               skip_properties=frozenset({"ii"}))
                rnd.call("derive", u.derive_chain, fr, cfg)
        for cv in self.chains:
            rnd.call("lemma", self._lemma, cv)
        return rnd

    def check(self, rnd: Round) -> None:
        outs = iter(rnd.outputs)
        for lines, _, _ in self.frames:
            fr = next(outs)
            if fr is not None:
                got = (fr.cap_cup.value, fr.variant.value)
                want = checks.frame_expectation(lines)
                checks.require(got == want, f"frame read as {got}, "
                                            f"built as {want}")
        for _ in range(len(self.frames) * len(self.seeds)):
            checks.require(next(outs) is None,
                           "a full-rule search found a configuration")
        for lines, cup, _ in self.frames:
            if not cup:
                continue
            cfg, cv = next(outs), next(outs)
            checks.require(cfg is not None,
                           "a cup-frame control search found nothing")
            checks.check_rules_i_iii(
                lines, [((e.p.x, e.p.y), (e.q.x, e.q.y)) for e in cfg.edges])
            if cv is not None:
                checks.check_chain_angles(lines, cv.alpha)
        for cv in self.chains:
            checks.check_lemma(next(outs), checks.lemma_expectation(
                cv.alpha, cv.a[2], cv.r))

    def details(self, ops: List[Op]) -> Dict[str, float]:
        per = self.SAMPLES // self.tl.unstretch._CONFIGS_PER_TRIPLE
        search = [op for op in ops if op.kind in ("search", "control")]
        return {"triples_per_s": per * len(search)
                / sum(op.seconds for op in search),
                **_rate(ops, "lemma", "lemma_checks_per_s")}


# -- shared -------------------------------------------------------------------


def _rate(ops: List[Op], kind: str, name: str) -> Dict[str, float]:
    mine = [op.seconds for op in ops if op.kind == kind]
    return {name: len(mine) / sum(mine)}


WORKLOADS = {"scan": Scan, "extract": Extract, "unstretch": Unstretch}

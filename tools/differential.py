"""Record treelines' results on a fixed, seeded corpus, and compare records.

    python tools/differential.py record --tree PATH --out DIR [--size N]
    python tools/differential.py compare A B [--expect-change FAMILY.FIELD]
    python tools/differential.py compare --against REV [--size N]
                                         [--expect-change FAMILY.FIELD]

``record`` runs the corpus against the sources in ``PATH/src``, in a
subprocess with ``PYTHONHASHSEED=0``.  It writes one JSON-lines file per
family of records, ``DIR/<family>.jsonl``: each line names a case and holds
its canonical result, or the error's type and text.  ``DIR/SHA256SUMS``
holds a SHA-256 per family.  ``--size`` scales the number of random inputs
(default 8).

A family whose corpus the recorded program rejects with an error that
``outcome`` catches ends in one record of that error; the other families
are still recorded.

``compare`` prints the record count of every family and the first record
that differs, and exits with 1 when any family differs.  ``--against REV``
exports the commit REV of the repository this file sits in with
``git archive`` into a temporary directory, records it and this checkout's
working tree at the same size, and compares the two.  A change meant to
alter one field names it with ``--expect-change FAMILY.FIELD``, which may
be repeated: the records of FAMILY may then differ in the key FIELD, at
any depth of their results, and must be identical in everything else;
the report counts the records whose FIELD changed.

The inputs come from the generators of ``tests/conftest.py`` and
``perfbench/inputs.py`` of the checkout this file sits in, so both trees of
a comparison see the same corpus; they run against the tree recorded, so
they may import from ``treelines`` only names that every tree compared
defines.  The families cover the general-position check and the crossings
of lines, the region hulls and everything that clips against them, the
six-line frames and the forced-length chain, segment relations, the
extraction of caps, cups and angle-gap chains, the gap colouring, and the
embedding checker, solver and scan:

    general_position verify_general_position's slope-ordered rows, or its
                     error with the input positions it names
    crossings        line_intersection of every pair of lines, its error
                     on equal slopes, and Line.contains on and off the
                     crossings
    region_hull      vertices, sides and boundedness of every region hull
    clip             RegionHull.clip_parameters of segments, each end's
                     parameter as a Fraction
    contains         RegionHull.contains of points
    comb_type        comb_type of segments in both directions, errors too,
                     and LineSet.crossings_on of each, in its order
    path_descriptor  path_descriptor of embedded root paths, errors too
    frame            validate_frame verdicts and errors
    validate_config  validate_config verdicts, rule (ii) among them
    screen           _FrameFloats.clearly_meets_hull verdicts, also on every
                     batch of full-rule feasibility searches, in order
    solve_u          _FrameFloats._solve_edge of each edge on sampled and
                     on perturbed triples: each triple's count of feasible
                     edges, which edges are feasible, and float.hex of the
                     chosen u on each feasible edge
    lemma            lemma24_check verdicts and HypothesisFail on criterion
                     5's chains, the benchmark's, edge cases, margins near
                     the guard band and derive_chain of control searches
    winding          winding_number, errors too
    segments         segments_intersect both ways round, and on_segment of
                     each endpoint against the other segment, also on ends
                     whose homogeneous triples share a factor and on
                     coordinates past 2**64
    cap_cup          classify_cap_cup, and longest_cap_cup's kind and
                     parent_ids, errors too
    monotone         extract_monotone_gaps' ids and direction, errors too
    doubling         extract_doubling's ids and variant, errors too
    gaps             angle_gap of every pair of lines both ways round, and
                     its error on equal slopes
    pair_chains      the length and parent tables of ranked_chains on gap
                     keys, crossing keys and keys that tie in float
    coloring         color_by_gaps' colour of every triple and the longest
                     monochromatic path of that colouring, errors too
    solve            solve's found flag, positions, nodes and restarts, also
                     with one candidate per vertex, so that restarts run
    check            check_embedding reports: violations and warnings
    scan             scan_universality reports
    cli              stdout, stderr, exit code and SVG bytes of ``analyze``,
                     the three extract commands, ``regions``, ``render``,
                     ``check``, ``solve``, ``scan`` and ``unstretch``, input
                     errors too
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import importlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SUMS = "SHA256SUMS"
DEFAULT_SIZE = 8
# the commands whose one argument is a line file
LINE_FILE_COMMANDS = ("analyze", "extract-cap", "extract-monotone",
                      "extract-doubling")


# -- canonical records --------------------------------------------------------


def canonical(obj):
    """A JSON value for a result: Fractions as 'n/d' strings, enums by
    value, bytes by their SHA-256 and length, dataclasses as dicts of their
    compared fields, tuples as lists."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, bytes):
        return {"sha256": hashlib.sha256(obj).hexdigest(), "len": len(obj)}
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.compare}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


# the errors recorded as results rather than raised; RuntimeError holds
# treelines' PostconditionError, which a broken predicate can trip
RECORDED_ERRORS = (ValueError, ArithmeticError, RuntimeError)


def error_record(exc: Exception):
    return {"error": type(exc).__name__, "message": str(exc)}


def outcome(fn: Callable, *args, **kwargs):
    """fn's canonical result, or the type and text of the ValueError,
    ArithmeticError or RuntimeError it raises."""
    try:
        return {"ok": canonical(fn(*args, **kwargs))}
    except RECORDED_ERRORS as exc:
        return error_record(exc)


# -- the corpus ---------------------------------------------------------------


class Corpus:
    """The families, each a generator of (case, record) pairs, run against
    the treelines modules in ``tl`` on inputs from the generators of
    ``conftest`` and ``inputs``."""

    def __init__(self, tl, conftest, inputs, size: int):
        self.tl, self.conftest, self.inputs = tl, conftest, inputs
        self.size = size
        self._arrangements = None
        self._line_sets = None

    def families(self) -> Dict[str, Callable[[], Iterator]]:
        return {"general_position": self.general_position,
                "crossings": self.crossings,
                "region_hull": self.region_hull, "clip": self.clip,
                "contains": self.contains, "comb_type": self.comb_type,
                "path_descriptor": self.path_descriptor,
                "frame": self.frame,
                "validate_config": self.validate_config,
                "screen": self.screen, "solve_u": self.solve_u,
                "lemma": self.lemma,
                "winding": self.winding,
                "segments": self.segments,
                "cap_cup": self.cap_cup, "monotone": self.monotone,
                "doubling": self.doubling, "gaps": self.gaps,
                "pair_chains": self.pair_chains,
                "coloring": self.coloring,
                "solve": self.solve, "check": self.check, "scan": self.scan,
                "cli": self.cli}

    # -- general position and crossings
    def general_position(self):
        """verify_general_position on raw lists: random lines from few
        slopes and offsets, so that lines repeat, run parallel or meet
        three in a point; three lines through an off-grid rational point,
        in increasing and decreasing slope order, then shuffled among
        others; and two pairs whose crossings share their abscissa or
        their ordinate."""
        Line = self.tl.geometry.Line
        rng = np.random.default_rng(1623)

        def frac(lim: int, den: int) -> Fraction:
            return Fraction(int(rng.integers(-lim, lim + 1)), den)

        def through(x, y, count: int):
            slopes = np.sort(rng.choice(np.arange(-4000, 4000), count,
                                        replace=False))
            return [Line(s, s * x - y)
                    for s in (Fraction(int(v), 997) for v in slopes)]

        for k in range(10 * self.size):
            lim, den = ((2, 1), (3, 1), (6, 2), (4000, 997))[k % 4]
            n = 2 + k % 5 if lim < 4 else 2 + k % 9
            yield f"random{n}#{k}", self._verified(
                [Line(frac(lim, den), frac(lim, den)) for _ in range(n)])
        for k in range(4 * self.size):
            x = Fraction(int(rng.integers(-10**6, 10**6)),
                         int(rng.integers(1, 10**6)))
            y = Fraction(int(rng.integers(-10**6, 10**6)),
                         int(rng.integers(1, 10**6)))
            three = through(x, y, 3)
            others = [Line(frac(4000, 997), frac(4000, 1009))
                      for _ in range(k % 4)]
            mixed = three + others
            for way, lines in (("increasing", mixed),
                               ("decreasing", three[::-1] + others),
                               ("shuffled", [mixed[int(i)] for i in
                                             rng.permutation(len(mixed))])):
                yield f"through#{k} {way}", self._verified(lines)
            step = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            for axis, (x2, y2) in (("abscissa", (x, y + step)),
                                   ("ordinate", (x + step, y))):
                yield (f"shared {axis}#{k}", self._verified(
                    through(x, y, 2) + through(x2, y2, 2)))

    def _verified(self, lines):
        """The slope-ordered lines verify_general_position returns, or its
        error with the input positions it names."""
        lineset = self.tl.lineset
        try:
            return {"ok": canonical(lineset.verify_general_position(lines)
                                    .lines)}
        except lineset.LineSetError as exc:
            at = getattr(exc, "triple", None) or exc.pair
            return {"error": type(exc).__name__, "message": str(exc),
                    "at": list(at)}

    def crossings(self):
        """line_intersection of every pair of lines of the extraction sets
        (line_sets), and Line.contains of both lines at each crossing and
        1/1009 above it; then the first line against a parallel and an
        identical line, both ways round."""
        g = self.tl.geometry
        up = Fraction(1, 1009)
        for name, ls in self.line_sets():
            points, contains = [], []
            for a, b in itertools.combinations(ls.lines, 2):
                pt = g.line_intersection(a, b)
                points.append([pt.x, pt.y])
                above = g.Point(pt.x, pt.y + up)
                contains.append("".join(str(int(ln.contains(p)))
                                        for p in (pt, above)
                                        for ln in (a, b)))
            yield name, {"points": canonical(points),
                         "contains": " ".join(contains)}
            for case, pair in self._equal_slopes(ls):
                yield f"{name} {case}", outcome(g.line_intersection, *pair)

    def _equal_slopes(self, ls):
        """(case, pair): the first line of ls against a parallel and an
        identical line, both ways round."""
        first = ls.line(1)
        for kind, other in (
                ("parallel", self.tl.geometry.Line(first.slope,
                                                   first.dual_offset + 1)),
                ("identical", first.with_id(0))):
            for way, pair in (("fwd", (first, other)),
                              ("bwd", (other, first))):
                yield f"{kind} {way}", pair

    # -- arrangements with their hulls and segments
    def arrangements(self):
        """(name, LineSet, ColorClasses, {region: hull or error}, segments)
        for random sets, cups and caps of the tests' generators and the
        benchmark's cups; built once."""
        if self._arrangements is None:
            self._arrangements = list(self._build_arrangements())
        return self._arrangements

    def _build_arrangements(self):
        ct, tl = self.conftest, self.tl
        rng = np.random.default_rng(1611)
        shapes = [("lines", n, c) for n, c in ((6, 2), (6, 3), (8, 2),
                                               (8, 4), (12, 3))]
        shapes += [("cup", 12, 4), ("cap", 12, 3), ("cup", 6, 6),
                   ("bench-cup", 24, 4), ("bench-cup", 24, 6)]
        for k in range(self.size):
            for kind, n, c in shapes:
                if kind == "lines":
                    ls = ct.random_lines(rng, n)
                elif kind == "cup":
                    ls = ct.random_cup(rng, n)
                elif kind == "cap":
                    ls = ct.mirrored(ct.random_cup(rng, n))
                else:
                    ls = tl.io_formats.parse_lines(self.inputs.lines_text(
                        self.inputs.random_cup(rng, n)))
                cc = tl.lineset.ColorClasses(c, n)
                hulls = {}
                for r in tl.lineset.all_region_indices(cc):
                    try:
                        hulls[r] = tl.lineset.region_hull(ls, cc, r)
                    except ValueError as exc:
                        hulls[r] = exc
                yield (f"{kind}{n}c{c}#{k}", ls, cc, hulls,
                       self._segments(rng, ls))

    def _segments(self, rng, ls):
        """Random segments that miss every crossing, then segments that
        end at a crossing, join two crossings or run along a line."""
        Point, Segment = self.tl.geometry.Point, self.tl.geometry.Segment
        plain = [(l.slope, l.dual_offset) for l in ls]
        segs = []
        for _ in range(4):
            a, b = self.inputs.random_segment(rng, plain)
            segs.append(Segment(Point(*a), Point(*b)))
        pts = ls.intersection_points()
        pick = rng.choice(len(pts), size=4, replace=False)
        u, v, w, z = (pts[int(i)] for i in pick)
        segs += [Segment(u, segs[0].q), Segment(u, v), Segment(w, z)]
        # along line 1 from its first crossing to beyond its last
        row = [pt for _, pt in self.tl.lineset.intersection_order(ls, 1)]
        segs.append(Segment(row[0], ls.line(1).point_at(row[-1].x + 1)))
        return segs

    def region_hull(self):
        for name, _, _, hulls, _ in self.arrangements():
            for r, h in hulls.items():
                rec = (error_record(h) if isinstance(h, Exception)
                       else {"ok": canonical(h)})
                yield f"{name} R{r.a},{r.b}", rec

    def _good_hulls(self):
        for name, ls, cc, hulls, segs in self.arrangements():
            for r, h in hulls.items():
                if not isinstance(h, Exception):
                    yield f"{name} R{r.a},{r.b}", h, segs

    def clip(self):
        Segment = self.tl.geometry.Segment

        def interval(h, seg):
            iv = h.clip_parameters(seg)
            if iv is None:
                return None
            return (Fraction(*iv[0]), Fraction(*iv[1]), *iv[2:])

        for case, h, segs in self._good_hulls():
            for k, s in enumerate(segs):
                for way, seg in (("fwd", s), ("bwd", Segment(s.q, s.p))):
                    yield (f"{case} seg{k} {way}",
                           outcome(interval, h, seg))

    def contains(self):
        Point = self.tl.geometry.Point
        for case, h, segs in self._good_hulls():
            vs = h.vertices
            probes = list(vs)
            probes += [Point((a.x + b.x) / 2, (a.y + b.y) / 2)
                       for a, b in zip(vs, vs[1:] + vs[:1])]
            probes += [Point((3 * a.x - b.x) / 2, (3 * a.y - b.y) / 2)
                       for a, b in zip(vs, vs[1:] + vs[:1])]
            probes += [p for s in segs for p in (s.p, s.q)]
            yield case, [h.contains(p) for p in probes]

    def comb_type(self):
        """comb_type of every arrangement's segments, both ways round, and
        the arrangement points crossings_on finds on each, in the order it
        returns them."""
        Segment, embed = self.tl.geometry.Segment, self.tl.embed
        for name, ls, cc, hulls, segs in self.arrangements():
            ok = not any(isinstance(h, Exception) for h in hulls.values())
            for k, s in enumerate(segs):
                for way, seg in (("fwd", s), ("bwd", Segment(s.q, s.p))):
                    args = (ls, cc, seg, hulls) if ok else (ls, cc, seg)
                    yield (f"{name} seg{k} {way}",
                           outcome(embed.comb_type, *args))
                    yield (f"{name} seg{k} {way} crossings_on",
                           outcome(ls.crossings_on, seg))

    def path_descriptor(self):
        ct, inputs, tl = self.conftest, self.inputs, self.tl
        embed = tl.embed
        rng = np.random.default_rng(1612)
        for k in range(4 * self.size):
            n = (6, 8)[k % 2]
            ls = (ct.random_cup if k % 4 >= 2 else ct.random_lines)(rng, n)
            cc = tl.lineset.ColorClasses(2, n)
            edges = (inputs.star_edges(n) if k % 3 == 0
                     else inputs.random_tree(rng, n))
            tree = embed.Tree(n, tuple(edges))
            asg = embed.Assignment(tuple(int(i) + 1
                                         for i in rng.permutation(n)))
            plain = [(l.slope, l.dual_offset) for l in ls]
            emb = embed.Embedding(tuple(inputs.random_positions(rng, plain,
                                                                n)))
            children = tree.children_of()
            paths, stack = [], [[0]]
            while stack:
                path = stack.pop()
                if children[path[-1]]:
                    stack += [path + [v] for v in children[path[-1]]]
                else:
                    paths.append(path)
            paths.sort()
            for p in paths:
                yield (f"#{k} {p}", outcome(embed.path_descriptor, ls, cc,
                                            asg, emb, tree, [p]))
            yield (f"#{k} all", outcome(embed.path_descriptor, ls, cc, asg,
                                        emb, tree, paths))

    # -- six-line frames
    def frames(self):
        """The benchmark's frames and criterion 6's frames."""
        tl, inputs = self.tl, self.inputs
        rng = np.random.default_rng(1613)
        out = []
        for k in range(max(2, self.size // 2)):
            lines = inputs.random_frame_lines(rng, cup=k % 2 == 0)
            ls = tl.io_formats.parse_lines(inputs.lines_text(lines))
            out.append((f"bench#{k}",
                        tl.unstretch.validate_frame(ls, [1, 2, 3, 4, 5, 6])))
        rng = np.random.default_rng(106)    # criterion 6's generator seed
        for k in range(min(20, 2 * self.size)):
            out.append((f"crit6#{k}", self.conftest.random_frame(
                rng, cup=k % 2 == 0)))
        return out

    def frame(self):
        """validate_frame on six lines tangent to a parabola whose angle
        gaps are each 0.97 to 1.3 times the total of the earlier ones, so
        that the doubling inequality often fails or holds by little: read
        from the right every other time (the upper variant), some with a
        span of 80 to 100 degrees, some with an offset moved off the
        parabola, with ids out of order or one short; errors too."""
        ct, tl = self.conftest, self.tl
        Line = tl.geometry.Line
        rng = np.random.default_rng(1624)
        for k in range(40 * self.size):
            gaps = [float(rng.uniform(0.5, 2.0))]
            for _ in range(4):
                gaps.append(sum(gaps) * float(rng.uniform(0.97, 1.3)))
            if k % 2:
                gaps.reverse()
            if k % 4 >= 2:
                span = float(rng.uniform(80.0, 100.0))
                gaps = [g * span / sum(gaps) for g in gaps]
            degs = [float(rng.uniform(-85.0, 85.0 - sum(gaps)))]
            for g in gaps:
                degs.append(degs[-1] + g)
            slopes = [ct.slope_of_degrees(d) for d in degs]
            sign = 1 if k % 3 == 0 else -1      # a cup, else a cap
            lines = [Line(s, sign * s * s) for s in slopes]
            if k % 5 == 4:
                j = int(rng.integers(0, 6))
                lines[j] = Line(slopes[j], lines[j].dual_offset * Fraction(
                    int(rng.integers(50, 151)), 100))
            ids = ([1, 2, 3, 4, 6, 5] if k % 13 == 12 else
                   [1, 2, 3, 4, 5] if k % 17 == 16 else [1, 2, 3, 4, 5, 6])
            yield f"#{k}", outcome(lambda: tl.unstretch.validate_frame(
                tl.lineset.verify_general_position(lines), ids))

    def _candidates(self, frame, rng):
        """(u, t) float triples as the search screens them (drawn by the
        frame's sampler, with the u its solver finds on all three edges),
        and wider random ones."""
        geo = self.tl.unstretch._FrameFloats(frame)
        m = 30 * self.size
        t = geo.sample_triples(rng, 40 * m)
        u, feasible = self.conftest.solve_every_edge(geo, t)
        keep = np.flatnonzero(feasible == 3)[:m]
        u, t = u[:, keep], t[:, keep]
        apex = np.array([float(frame.apex(j).x) for j in (1, 2, 3)])
        scale = 10.0 ** rng.uniform(-3, 2, size=(1, m))
        t2 = apex[:, None] + rng.uniform(-4, 4, size=(3, m)) * scale
        u2 = apex[:, None] + rng.uniform(-4, 4, size=(3, m)) * scale
        return geo, np.concatenate([u, u2], axis=1), np.concatenate(
            [t, t2], axis=1)

    def validate_config(self):
        us = self.tl.unstretch
        rng = np.random.default_rng(1614)
        for name, frame in self.frames():
            _, u, t = self._candidates(frame, rng)
            for i in range(u.shape[1]):
                params = [float(v) for j in range(3)
                          for v in (u[j, i], t[j, i])]
                yield f"{name} #{i}", outcome(
                    lambda: us.validate_config(frame, us.config_from_params(
                        frame, [Fraction(v) for v in params])))

    def screen(self):
        """Verdicts on the candidates of _candidates, in one batch, then
        the verdicts on every batch that two full-rule searches screen (of
        the benchmark's 10**6 samples at size 8), concatenated in order,
        with what the searches return."""
        us = self.tl.unstretch
        rng = np.random.default_rng(1614)
        for name, frame in self.frames():
            geo, u, t = self._candidates(frame, rng)
            yield name, "".join(map(str, geo.clearly_meets_hull(u, t)
                                    .astype(int)))
        floats = us._FrameFloats
        real = floats.clearly_meets_hull
        for name, frame in self.frames():
            for seed in (0, 1):
                verdicts = []

                def spy(geo, u, t):
                    got = real(geo, u, t)
                    verdicts.extend(map(str, got.astype(int)))
                    return got

                floats.clearly_meets_hull = spy
                try:
                    found = outcome(us.feasibility_search, frame,
                                    125_000 * self.size, seed)
                finally:
                    floats.clearly_meets_hull = real
                yield f"{name} search seed {seed}", {
                    "found": found, "verdicts": "".join(verdicts)}

    def solve_u(self):
        """_solve_edge of each edge on a batch of sample_triples and on one
        of perturb_triples around its 40 triples with the most feasible
        edges, as the search draws them, for every frame: the count of
        feasible edges, the feasible edges and u where it is feasible, as
        u is meaningful only there."""
        us, solve = self.tl.unstretch, self.conftest.solve_every_edge
        rng = np.random.default_rng(1627)
        for name, frame in self.frames():
            geo = us._FrameFloats(frame)
            m = 50 * self.size
            sampled = geo.sample_triples(rng, m)
            _, count = solve(geo, sampled)
            near = sampled[:, np.argsort(-count, kind="stable")[:40]]
            batches = (("sampled", sampled),
                       ("perturbed", geo.perturb_triples(rng, near, m)))
            for batch, t in batches:
                u, count = solve(geo, t)
                ok = [geo._solve_edge(j, t)[1] for j in (1, 2, 3)]
                yield f"{name} {batch}", {
                    "feas_edges": "".join(map(str, count)),
                    "feasible": ["".join(map(str, row.astype(int)))
                                 for row in ok],
                    "u": [float.hex(float(u[j, k])) for j in range(3)
                          for k in np.flatnonzero(ok[j])]}

    # -- the forced-length chain
    def lemma(self):
        """lemma24_check verdicts, HypothesisFail among them: on the first
        chains of criterion 5's generator, on chains of the benchmark's
        parameters, on chain_from_parameters' edge cases (equal angles,
        r = 0, a failed ordering), on chains whose margin lies near the
        guard band either side, and on derive_chain of rule-(ii)-skipped
        searches on the cup frames."""
        us, ct = self.tl.unstretch, self.conftest
        chains = ct.criterion_5_chains()
        for k in range(250 * self.size):
            yield f"crit5#{k}", outcome(us.lemma24_check, next(chains))
        rng = np.random.default_rng(1626)
        for k, (tail, a3, r) in enumerate(
                self.inputs.random_chain_parameters(rng, 50 * self.size)):
            with mpmath.workdps(us.DPS):     # as the benchmark builds them
                tail = [mpmath.mpf(x) for x in tail]
                a3 = mpmath.mpf(a3)
                cv = us.ChainValues((mpmath.pi - mpmath.fsum(tail), *tail),
                                    (a3, a3, a3), (a3, a3, a3),
                                    tuple(mpmath.mpf(x) for x in r))
            yield f"bench#{k}", outcome(us.lemma24_check, cv)
        equal = ["0.5235987755982988"] * 5
        for name, tail, r in (
                ("equal angles", equal, [1, 1, 1]),
                ("r = 0", equal, [0, 0, 0]),
                ("no ordering", ["0.35", "0.09", "0.52", "0.17", "0.7"],
                 [1, 1, 1])):
            yield name, outcome(lambda: us.lemma24_check(
                us.chain_from_parameters(tail, 5, r)))
        guard = float(us.GUARD_BAND)
        for sign in (1, -1):
            for offset in (0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-6, -1e-6):
                margin = sign * guard + offset
                yield f"margin {margin!r}", outcome(
                    lambda: us.lemma24_check(ct.chain_with_margin(
                        ["0.3", "0.25", "0.2", "0.15", "0.1"], 2,
                        [1, "0.5"], margin)))
        for name, frame in self.frames():
            if frame.cap_cup is not self.tl.lineset.CapCup.CUP:
                continue
            cfg = us.feasibility_search(frame, 125_000 * self.size, 0,
                                        skip_properties=frozenset({"ii"}))
            yield f"{name} control", {
                "config": canonical(cfg), "verdict": None if cfg is None
                else outcome(lambda: us.lemma24_check(
                    us.derive_chain(frame, cfg)))}

    # -- winding numbers
    def winding(self):
        g = self.tl.geometry
        rng = np.random.default_rng(1615)

        def pt(lim=6, den=(1, 2, 3)):
            return g.Point(Fraction(int(rng.integers(-lim, lim + 1)),
                                    int(rng.choice(den))),
                           Fraction(int(rng.integers(-lim, lim + 1)),
                                    int(rng.choice(den))))

        for k in range(40 * self.size):
            poly = [pt() for _ in range(int(rng.integers(2, 8)))]
            if k % 2:
                poly.append(poly[0])
            while True:
                dx, dy = (Fraction(int(v), 3)
                          for v in rng.integers(-4, 5, size=2))
                if dx or dy:
                    break
            # the origin sometimes on a vertex or an edge's line
            origin = poly[0] if k % 5 == 0 else pt()
            yield f"#{k}", outcome(g.winding_number, poly,
                                   g.Ray(origin, dx, dy))

    # -- segment relations
    def segments(self):
        """Pairs of segments with small rational ends: random pairs, pairs
        that share an endpoint, T-junctions (an end inside the other) and
        collinear pairs that overlap, nest, touch at an end or are
        disjoint, each end order drawn at random.  Then collinear pairs,
        crossings and T-junctions whose ends have both coordinates over one
        denominator, so that their homogeneous triples share it as a
        factor, with small numerators and with numerators past 2**64."""
        g = self.tl.geometry
        rng = np.random.default_rng(1626)

        def pt(lim=6, den=(1, 2, 3)):
            return g.Point(Fraction(int(rng.integers(-lim, lim + 1)),
                                    int(rng.choice(den))),
                           Fraction(int(rng.integers(-lim, lim + 1)),
                                    int(rng.choice(den))))

        def seg(a, b):
            return g.Segment(a, b) if rng.random() < 0.5 else g.Segment(b, a)

        def other(*avoid):
            while True:
                c = pt()
                if c not in avoid:
                    return c

        def relation(u, v):
            return {"relation": canonical([g.segments_intersect(u, v),
                                           g.segments_intersect(v, u)]),
                    "on": "".join(str(int(g.on_segment(x, p)))
                                  for x, y in ((u, v), (v, u))
                                  for p in (y.p, y.q))}

        for k in range(20 * self.size):
            a = pt()
            b = other(a)
            s1, c = seg(a, b), pt()
            pairs = [("random", s1, seg(c, other(c))),
                     ("shared", s1, seg(a, other(a)))]
            t = Fraction(int(rng.integers(1, 6)), 6)
            inside = s1.at(t)
            pairs.append(("T", s1, seg(inside, other(inside))))
            # collinear: ends at small multiples of b - a along the line
            ts = [int(v) for v in rng.integers(-3, 4, size=4)]
            if ts[0] != ts[1] and ts[2] != ts[3]:
                on = g.Segment(a, b)
                pairs.append(("collinear", seg(on.at(ts[0]), on.at(ts[1])),
                              seg(on.at(ts[2]), on.at(ts[3]))))
            for kind, u, v in pairs:
                yield f"{kind}#{k}", relation(u, v)

        def num(big):
            n = int(rng.integers(-6, 7))
            return n * 2**64 + int(rng.integers(-2**62, 2**62)) if big else n

        def common(big):
            d = int(rng.choice((2, 6)))
            if big and rng.random() < 0.5:
                d *= 2**65
            return g.Point(Fraction(num(big), d), Fraction(num(big), d))

        for k in range(10 * self.size):
            for size in ("small", "big"):
                big = size == "big"
                a, b = common(big), common(big)
                if a == b:
                    continue
                on = g.Segment(a, b)
                ts = [int(v) for v in rng.integers(-3, 4, size=4)]
                if ts[0] != ts[1] and ts[2] != ts[3]:
                    yield f"factor collinear {size}#{k}", relation(
                        seg(on.at(ts[0]), on.at(ts[1])),
                        seg(on.at(ts[2]), on.at(ts[3])))
                x = on.at(Fraction(int(rng.integers(1, 6)), 6))
                c = common(big)
                if c != x:
                    # through x, inside ab: a crossing unless c is on the
                    # line ab, and a T-junction that ends at x
                    far = g.Point(2 * x.x - c.x, 2 * x.y - c.y)
                    yield f"factor cross {size}#{k}", relation(
                        seg(a, b), seg(c, far))
                    yield f"factor T {size}#{k}", relation(seg(a, b),
                                                           seg(x, c))

    # -- extraction
    def line_sets(self):
        """(name, LineSet) for the extraction families: sets of 1 and 2
        lines, random sets, random cups and their mirrored caps of 3 to 40
        lines, sets of integer slopes with tied gaps, and the benchmark's
        random sets of 40 and 80 lines; built once."""
        if self._line_sets is None:
            self._line_sets = list(self._build_line_sets())
        return self._line_sets

    def _build_line_sets(self):
        ct, inputs = self.conftest, self.inputs
        rng = np.random.default_rng(1617)
        for n in (1, 2):
            yield f"lines{n}", ct.random_lines(rng, n)
        for k in range(self.size):
            for n in range(3 + k % 4, 41, 4):
                cup = ct.random_cup(rng, n)
                yield f"lines{n}#{k}", ct.random_lines(rng, n)
                yield f"cup{n}#{k}", cup
                yield f"cap{n}#{k}", ct.mirrored(cup)
                yield f"tied{n}#{k}", ct.tied_gap_lines(rng, n)
        for k in range(max(1, self.size // 4)):
            for n in (40, 80):
                yield (f"bench{n}#{k}", self.tl.io_formats.parse_lines(
                    inputs.lines_text(inputs.random_lines(rng, n))))

    def cap_cup(self):
        lineset = self.tl.lineset

        def longest(ls):
            kind, sub = lineset.longest_cap_cup(ls)
            return kind, sub.parent_ids

        for name, ls in self.line_sets():
            yield name, {"classify": outcome(lineset.classify_cap_cup, ls),
                         "longest": outcome(longest, ls)}

    def monotone(self):
        for name, ls in self.line_sets():
            yield name, outcome(self.tl.ramsey.extract_monotone_gaps, ls)

    def doubling(self):
        for name, ls in self.line_sets():
            yield name, outcome(self.tl.ramsey.extract_doubling, ls)

    def gaps(self):
        """angle_gap of every pair of lines of the extraction sets, both
        ways round: the values whose order alone pair_chains records; then
        its error on the pairs of _equal_slopes."""
        gap = self.tl.geometry.angle_gap
        for name, ls in self.line_sets():
            yield name, [[outcome(gap, a, b), outcome(gap, b, a)]
                         for a, b in itertools.combinations(ls.lines, 2)]
            for case, pair in self._equal_slopes(ls):
                yield f"{name} {case}", outcome(gap, *pair)

    def pair_chains(self):
        """The tables on every line set's angle gaps and crossing
        abscissas, then on keys within 2**-77 of 1, which all round to the
        float 1.0 and often tie exactly."""
        gap = self.tl.geometry.angle_gap
        for name, ls in self.line_sets():
            yield f"{name} gaps", self._tables(
                len(ls), lambda i, j: gap(ls.line(i), ls.line(j)))
            yield f"{name} crossings", self._tables(
                len(ls), lambda i, j: ls.intersection(i, j).x)
        rng = np.random.default_rng(1618)
        n = 14
        for k in range(self.size):
            keys = {(i, j): 1 + Fraction(int(rng.integers(-4, 5)), 2**80)
                    for j in range(1, n + 1) for i in range(1, j)}
            yield f"float ties#{k}", self._tables(n, lambda i, j: keys[i, j])

    def coloring(self):
        """color_by_gaps on the line sets of up to 12 lines: the colour of
        every triple, in lexicographic order, and the longest
        monochromatic path of the colouring."""
        ramsey = self.tl.ramsey

        def colours(ls):
            tc = ramsey.color_by_gaps(ls)
            return "".join(tc.of(*t).value[0] for t in
                           itertools.combinations(range(1, tc.n + 1), 3))

        for name, ls in self.line_sets():
            if len(ls) <= 12:
                yield name, {"colours": outcome(colours, ls),
                             "path": outcome(lambda: ramsey.longest_mono_path(
                                 ramsey.color_by_gaps(ls)))}

    def _tables(self, n: int, key):
        # each label's length and predecessor lists over the pair codes
        # j*base + k, as one sorted list of [j, k, label, value] rows per
        # list for the pairs with an entry (length > 0); (j, k, label) is
        # unique, so one sort orders both
        # a tree that ranks one pair at a time calls key(i, j); one that
        # ranks all pairs at once calls the column form on the two id
        # columns.  A tree whose ranked_chains takes the ids themselves,
        # not n, is given range(1, n + 1)
        ranked = self.tl.lineset.ranked_chains
        ids = (range(1, n + 1)
               if "vertices" in inspect.signature(ranked).parameters else n)
        columns = self.conftest.column_key(key)
        tables = ranked(ids, lambda i, j: key(i, j) if np.ndim(i) == 0
                        else columns(i, j), "lower", "upper")
        rows = sorted([*divmod(c, t.base), lab, m, t.pred[c]]
                      for lab, t in tables.items()
                      for c, m in enumerate(t.length) if m)
        return {"length": [r[:4] for r in rows],
                "parent": [r[:3] + r[4:] for r in rows]}

    # -- embeddings
    def _trees(self, rng, n: int):
        """(shape, Tree) for a path, a star, a spider with three legs from
        n=5 on, and a random recursive tree, whose ids are not always in
        level order."""
        inputs, Tree = self.inputs, self.tl.embed.Tree
        shapes = [("path", inputs.path_edges(n)),
                  ("star", inputs.star_edges(n))]
        if n >= 5:
            shapes.append(("spider", [(0, 1), (0, 2), (0, 3)]
                           + [(v - 3, v) for v in range(4, n)]))
        shapes.append(("random", inputs.random_tree(rng, n)))
        return [(shape, Tree(n, tuple(edges))) for shape, edges in shapes]

    def _assignment(self, rng, n: int):
        return self.tl.embed.Assignment(tuple(int(i) + 1
                                              for i in rng.permutation(n)))

    def solve(self):
        """solve on sets of 3 to 6 lines, every tree shape of _trees, at
        refine 1 to 4; then with each vertex's grid cut to its first
        candidate, so that the randomized restarts run."""
        ct, embed = self.conftest, self.tl.embed
        rng = np.random.default_rng(1619)
        cases = []
        for k in range(self.size):
            for n in (3, 4, 5, 6):
                ls = ct.random_lines(rng, n)
                for shape, tree in self._trees(rng, n):
                    cases.append((f"{shape}{n}#{k}", ls, tree,
                                  self._assignment(rng, n), k))
        for name, ls, tree, asg, seed in cases:
            for refine in (1, 2, 3, 4):
                yield (f"{name} refine {refine}",
                       outcome(embed.solve, ls, tree, asg, refine, 20, seed))
        with self._one_candidate():
            for name, ls, tree, asg, seed in cases:
                for budget in (0, 200):
                    yield (f"{name} one candidate budget {budget}",
                           outcome(embed.solve, ls, tree, asg, 2, budget,
                                   seed))

    @contextlib.contextmanager
    def _one_candidate(self):
        """Cut each vertex's candidate grid, the points that
        ``candidate_positions`` returns, to its first point."""
        embed = self.tl.embed
        grid = embed.candidate_positions
        embed.candidate_positions = lambda *args: grid(*args)[:1]
        try:
            yield
        finally:
            embed.candidate_positions = grid

    def check(self):
        """Whole check_embedding reports on criterion 7's fixtures, then on
        random drawings of 3 to 8 lines whose vertices often sit on
        crossings of their line, on the line through the ends of an edge,
        or on the same crossing as another vertex; errors too."""
        for name, _, *drawing in self.conftest.checker_fixtures():
            yield f"crit7 {name}", outcome(self.tl.embed.check_embedding,
                                           *drawing)
        ct, embed = self.conftest, self.tl.embed
        rng = np.random.default_rng(1620)
        for k in range(10 * self.size):
            n = 3 + k % 6
            ls = ct.random_lines(rng, n)
            shape, tree = self._trees(rng, n)[k % 3]
            asg = self._assignment(rng, n)
            plain = [(l.slope, l.dual_offset) for l in ls]
            xs = self.inputs.random_positions(rng, plain, n)
            row = {v: [pt for _, pt in self.tl.lineset.intersection_order(
                ls, asg.line_of(v))] for v in range(n)}
            for v in range(n):
                if rng.random() < 0.4:
                    xs[v] = row[v][int(rng.integers(0, n - 1))].x
            if k % 4 == 1:      # two vertices on the crossing of their lines
                v, w = (int(i) for i in rng.choice(n, 2, replace=False))
                xs[v] = xs[w] = ls.intersection(asg.line_of(v),
                                                asg.line_of(w)).x
            if k % 4 == 2:      # a vertex on the line through an edge's ends
                u, w = tree.edges[int(rng.integers(0, n - 1))]
                v = next((v for v in range(n) if v not in (u, w)), None)
                x = self._on_line_through(ls, asg, xs, u, w, v)
                if x is not None:
                    xs[v] = x
            emb = embed.Embedding(tuple(xs))
            yield (f"{shape}{n}#{k}",
                   outcome(embed.check_embedding, ls, tree, asg, emb))
        yield "one position short", outcome(
            embed.check_embedding, ls, tree, asg,
            embed.Embedding(tuple(xs[1:])))

    @staticmethod
    def _on_line_through(ls, asg, xs, u, w, v):
        """The abscissa where v's line meets the line through the points of
        u and w, or None when there is no such one point."""
        if v is None:
            return None
        lu, lw, lv = (ls.line(asg.line_of(i)) for i in (u, w, v))
        pu, pw = lu.point_at(xs[u]), lw.point_at(xs[w])
        if pu.x == pw.x:
            return pu.x
        m = (pw.y - pu.y) / (pw.x - pu.x)
        if m == lv.slope:
            return None
        return (pu.y - m * pu.x + lv.dual_offset) / (lv.slope - m)

    def scan(self):
        """scan_universality on sets of 3 and 4 lines, every tree shape of
        _trees, at refine 1, 2 and 4 with a budget of 20 restarts, then
        with one candidate per vertex and no restarts."""
        ct, embed = self.conftest, self.tl.embed
        rng = np.random.default_rng(1621)
        cases = []
        for k in range(max(1, self.size // 2)):
            for n in (3, 4):
                ls = ct.random_lines(rng, n)
                cases += [(f"{shape}{n}#{k}", ls, tree, k)
                          for shape, tree in self._trees(rng, n)]
        for name, ls, tree, seed in cases:
            for refine in (1, 2, 4):
                yield (f"{name} refine {refine}", outcome(
                    embed.scan_universality, ls, tree, refine, 20, seed))
        with self._one_candidate():
            for name, ls, tree, seed in cases:
                yield (f"{name} one candidate", outcome(
                    embed.scan_universality, ls, tree, 2, 0, seed))

    # -- command line
    def cli(self):
        """The commands run in a temporary working directory, so that the
        file names they print are the same on every run."""
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                return list(self._cli_cases())
            finally:
                os.chdir(here)

    def _cli_cases(self):
        ct, tl, inputs = self.conftest, self.tl, self.inputs
        rng = np.random.default_rng(1616)
        for k in range(max(1, self.size // 2)):
            cup = ct.random_cup(rng, 8)
            for kind, ls in (("lines", ct.random_lines(rng, 8)),
                             ("cup", cup), ("cap", ct.mirrored(cup))):
                Path("l.txt").write_text(tl.io_formats.serialize_lines(ls))
                for cmd in LINE_FILE_COMMANDS:
                    yield f"{cmd} {kind}#{k}", self._run([cmd, "l.txt"])
                for c in (2, 4, 8):
                    yield (f"regions {kind}#{k} c{c}",
                           self._run(["regions", "l.txt", "--c", str(c),
                                      "--svg", "out.svg"]))
                tree = ct.path_tree(8) if k % 2 else ct.star_tree(8)
                asg = tl.embed.Assignment(
                    tuple(int(i) + 1 for i in rng.permutation(8)))
                Path("i.txt").write_text(ct.serialize_instance(ls, tree, asg))
                plain = [(l.slope, l.dual_offset) for l in ls]
                Path("e.txt").write_text(inputs.embedding_text(
                    inputs.random_positions(rng, plain, 8)))
                yield (f"render {kind}#{k}",
                       self._run(["render", "i.txt", "e.txt", "--svg",
                                  "out.svg"]))
                yield (f"render {kind}#{k} bare",
                       self._run(["render", "i.txt", "--svg", "out.svg"]))
                # a scan-style instance, without a rows
                Path("i.txt").write_text(ct.serialize_instance(ls, tree,
                                                               None))
                for way, emb in (("bare", []), ("embedded", ["e.txt"])):
                    yield (f"render {kind}#{k} unassigned {way}",
                           self._run(["render", "i.txt", *emb, "--svg",
                                      "out.svg"]))
        # the same commands on sets drawn like the benchmark's, a set whose
        # majority slope sign has 2 lines, and a set too small for any
        for n in (40, 80):
            lines = inputs.random_lines(rng, n)
            Path("l.txt").write_text(inputs.lines_text(lines))
            for cmd in LINE_FILE_COMMANDS:
                yield f"{cmd} bench{n}", self._run([cmd, "l.txt"])
        for name, text in (("short", "l 1 -2 1\nl 2 -1 0\nl 3 1 3\n"),
                           ("two", "l 1 -1 0\nl 2 1 0\n")):
            Path("l.txt").write_text(text)
            for cmd in LINE_FILE_COMMANDS:
                yield f"{cmd} {name}", self._run([cmd, "l.txt"])
        yield from self._cli_embedding_cases()
        yield from self._cli_unstretch_cases()
        yield from self._cli_error_cases()

    def _cli_embedding_cases(self):
        """check on random and on solved embeddings, solve found and not,
        and scan found, not found and refused for its size."""
        ct, inputs = self.conftest, self.inputs
        rng = np.random.default_rng(1622)
        for k in range(max(1, self.size // 2)):
            ls = ct.random_lines(rng, 5)
            plain = [(l.slope, l.dual_offset) for l in ls]
            for shape, tree in self._trees(rng, 5):
                Path("i.txt").write_text(ct.serialize_instance(
                    ls, tree, self._assignment(rng, 5)))
                Path("e.txt").write_text(inputs.embedding_text(
                    inputs.random_positions(rng, plain, 5)))
                yield f"check {shape}#{k}", self._run(["check", "i.txt",
                                                       "e.txt"])
                for case, rec in self._searches("solve", k):
                    yield f"solve {shape}#{k} {case}", rec
                    if rec["code"] == 0:
                        Path("e.txt").write_text(
                            rec["stdout"].split("\n", 1)[1])
                        yield f"check {shape}#{k} {case} solved", self._run(
                            ["check", "i.txt", "e.txt"])
            ls = ct.random_lines(rng, 4)
            for shape, tree in self._trees(rng, 4):
                Path("i.txt").write_text(ct.serialize_instance(ls, tree,
                                                               None))
                for case, rec in self._searches("scan", k):
                    yield f"scan {shape}#{k} {case}", rec
        Path("i.txt").write_text(ct.serialize_instance(
            ct.random_lines(rng, 8), ct.star_tree(8), None))
        yield "scan star8", self._run(["scan", "i.txt"])

    def _cli_unstretch_cases(self):
        """unstretch at a fixed --samples on cup and cap frames drawn like
        the benchmark's, on six random lines and on five."""
        inputs = self.inputs
        rng = np.random.default_rng(1625)
        for k in range(max(1, self.size // 4)):
            for name, lines in (
                    ("cup", inputs.random_frame_lines(rng, cup=True)),
                    ("cap", inputs.random_frame_lines(rng, cup=False)),
                    ("random", inputs.random_lines(rng, 6)),
                    ("five", inputs.random_lines(rng, 5))):
                Path("l.txt").write_text(inputs.lines_text(lines))
                for seed in (0, 1):
                    yield (f"unstretch {name}#{k} seed {seed}", self._run(
                        ["unstretch", "l.txt", "--samples", "100000",
                         "--seed", str(seed)]))

    def _cli_error_cases(self):
        """Input errors: a parallel pair and an e row in a line file, for
        every command that reads one; an a row with three fields and an
        instance without a rows, for the commands that read an instance;
        and an embedding that places one vertex twice."""
        lines = "l 1 -1 0\nl 2 0 -1\nl 3 1 0\n"
        for name, text in (("parallel", "l 1 -1 0\nl 2 1 0\nl 3 1 1\n"),
                           ("e row", lines + "e 0 1\n")):
            Path("l.txt").write_text(text)
            for cmd in LINE_FILE_COMMANDS:
                yield f"{cmd} {name}", self._run([cmd, "l.txt"])
            yield f"regions {name}", self._run(
                ["regions", "l.txt", "--c", "3", "--svg", "out.svg"])
            yield f"unstretch {name}", self._run(
                ["unstretch", "l.txt", "--samples", "100"])
        tree = "e 0 1\ne 1 2\n"
        Path("e.txt").write_text("p 0 -2\np 1 2\np 2 0\n")
        for name, text in (("a row of 3 fields", "a 0 1 2\n"),
                           ("unassigned", "")):
            Path("i.txt").write_text(lines + tree + text)
            for argv in (["check", "i.txt", "e.txt"], ["solve", "i.txt"],
                         ["scan", "i.txt"],
                         ["render", "i.txt", "e.txt", "--svg", "out.svg"]):
                yield f"{argv[0]} {name}", self._run(argv)
        Path("i.txt").write_text(lines + tree + "a 0 1\na 1 3\na 2 2\n")
        Path("e.txt").write_text("p 0 -2\np 0 2\np 2 0\n")
        yield "check vertex placed twice", self._run(["check", "i.txt",
                                                      "e.txt"])

    def _searches(self, cmd: str, seed: int):
        """(case, record) of the solve or scan command on i.txt: with
        restarts to spare, then with one candidate per vertex and no
        restarts, which often finds nothing."""
        yield "refine 4 budget 20", self._run(
            [cmd, "i.txt", "--refine", "4", "--budget", "20", "--seed",
             str(seed)])
        with self._one_candidate():
            rec = self._run([cmd, "i.txt", "--refine", "2", "--budget", "0",
                             "--seed", str(seed)])
        yield "refine 2 one candidate", rec

    def _run(self, argv: List[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.tl.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        svg = Path("out.svg")
        data = None
        if svg.exists():
            data = svg.read_bytes()
            svg.unlink()
        return {"code": code, "stdout": out.getvalue(),
                "stderr": err.getvalue(), "svg": canonical(data)}


def run_corpus(tree: Path, out: Path, size: int) -> None:
    """Import treelines from tree/src and the generators from this
    checkout, then write every family's records and their SHA-256."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "perfbench")]
    tl = argparse.Namespace(**{
        m: importlib.import_module(f"treelines.{m}")
        for m in ("geometry", "lineset", "ramsey", "embed", "unstretch",
                  "io_formats", "cli")})
    origin = Path(tl.geometry.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"treelines imported from {origin}, not {src}")
    corpus = Corpus(tl, importlib.import_module("conftest"),
                    importlib.import_module("inputs"), size)
    out.mkdir(parents=True, exist_ok=True)
    sums = []
    for family, records in corpus.families().items():
        lines = [json.dumps({"case": case, "record": rec}, sort_keys=True)
                 + "\n" for case, rec in _caught(records)]
        data = "".join(lines).encode()
        (out / f"{family}.jsonl").write_bytes(data)
        sums.append(f"{hashlib.sha256(data).hexdigest()}  {family}.jsonl\n")
    (out / SUMS).write_text("".join(sums))


def _caught(records: Callable[[], Iterator]):
    """The family's records, ended by one record of the error when building
    its corpus raises one that ``outcome`` records too."""
    try:
        yield from records()
    except RECORDED_ERRORS as exc:
        yield "corpus", error_record(exc)


def record(tree: Path, out: Path, size: int) -> None:
    """run_corpus in a fresh interpreter with PYTHONHASHSEED=0."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "corpus", str(tree), str(out), str(size)],
                   env=env, check=True)


# -- comparing ----------------------------------------------------------------


def _families(d: Path) -> Dict[str, str]:
    sums = {}
    for line in (d / SUMS).read_text().splitlines():
        digest, name = line.split()
        sums[name[:-len(".jsonl")]] = digest
    return sums


def compare(a: Path, b: Path, out=sys.stdout, expect=()) -> bool:
    """Print each family's record count and its first differing record;
    True when every family is identical in both directories, apart from
    the fields that ``expect`` names as 'FAMILY.FIELD'."""
    fa, fb = _families(a), _families(b)
    fields: Dict[str, set] = {}
    for name in expect:
        family, _, field = name.partition(".")
        fields.setdefault(family, set()).add(field)
    same = True
    for family in sorted(fields.keys() - (fa.keys() | fb.keys())):
        print(f"{family}: named by --expect-change, recorded in neither",
              file=out)
        same = False
    for family in sorted(fa.keys() | fb.keys()):
        if family not in fa or family not in fb:
            print(f"{family}: only in {a if family in fa else b}", file=out)
            same = False
            continue
        ra = (a / f"{family}.jsonl").read_text().splitlines()
        rb = (b / f"{family}.jsonl").read_text().splitlines()
        if fa[family] == fb[family] and ra == rb:
            print(f"{family}: {len(ra)} records, identical", file=out)
            continue
        names = fields.get(family, set())
        # each record as compared: without the named keys, if any
        key = (lambda x: x) if not names else \
            (lambda x: x and _without(x, names))
        if names and list(map(key, ra)) == list(map(key, rb)):
            changed = sum(x != y for x, y in zip(ra, rb))
            print(f"{family}: {len(ra)} records, {changed} with "
                  f"{', '.join(sorted(names))} changed, everything else "
                  f"identical", file=out)
            continue
        same = False
        print(f"{family}: {len(ra)} vs {len(rb)} records, DIFFERENT",
              file=out)
        for k, (x, y) in enumerate(itertools.zip_longest(ra, rb)):
            if key(x) != key(y):
                print(f"  first difference at record {k + 1}:\n"
                      f"  A: {_excerpt(x, y)}\n  B: {_excerpt(y, x)}",
                      file=out)
                break
    return same


def _without(line: str, names) -> str:
    """A record line as JSON text with the keys in ``names`` dropped at
    every depth of its result; its case is kept."""
    def drop(v):
        if isinstance(v, dict):
            return {k: drop(w) for k, w in v.items() if k not in names}
        if isinstance(v, list):
            return [drop(w) for w in v]
        return v
    rec = json.loads(line)
    return json.dumps({"case": rec["case"], "record": drop(rec["record"])},
                      sort_keys=True)


def _excerpt(line, other, width: int = 400):
    """A record longer than ``width`` characters cut to its case and the
    ``width`` characters around its first difference from ``other``."""
    if line is None or len(line) <= width:
        return line
    at = next((i for i, (c, d) in enumerate(zip(line, other or ""))
               if c != d), min(len(line), len(other or "")))
    lo = max(0, at - width // 2)
    return f"[{json.loads(line)['case']}] ...{line[lo:lo + width]}..."


def against(rev: str, size: int, expect=()) -> bool:
    """Record REV (exported with git archive) and this working tree, and
    compare them."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "tree"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive,
                       check=True)
        record(base, Path(tmp) / "A", size)
        record(ROOT, Path(tmp) / "B", size)
        print(f"A = {rev}, B = working tree of {ROOT}")
        return compare(Path(tmp) / "A", Path(tmp) / "B", expect=expect)


def _field(name: str) -> str:
    family, dot, field = name.partition(".")
    if not (family and dot and field):
        raise argparse.ArgumentTypeError(f"{name!r} is not FAMILY.FIELD")
    return name


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("record", help="record the corpus for one tree")
    p.add_argument("--tree", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--size", type=int, default=DEFAULT_SIZE)
    p = sub.add_parser("compare", help="compare two records")
    p.add_argument("dirs", type=Path, nargs="*")
    p.add_argument("--against", metavar="REV")
    p.add_argument("--size", type=int, default=DEFAULT_SIZE)
    p.add_argument("--expect-change", metavar="FAMILY.FIELD", type=_field,
                   action="append", default=[],
                   help="a field that may differ; repeatable")
    p = sub.add_parser("corpus")    # the subprocess that record starts
    p.add_argument("tree", type=Path)
    p.add_argument("out", type=Path)
    p.add_argument("size", type=int)
    args = ap.parse_args(argv)
    if args.cmd == "record":
        record(args.tree, args.out, args.size)
        return 0
    if args.cmd == "corpus":
        run_corpus(args.tree, args.out, args.size)
        return 0
    if args.against:
        if args.dirs:
            ap.error("compare takes two directories or --against REV")
        return 0 if against(args.against, args.size,
                            args.expect_change) else 1
    if len(args.dirs) != 2:
        ap.error("compare takes two directories or --against REV")
    return 0 if compare(*args.dirs, expect=args.expect_change) else 1


if __name__ == "__main__":
    sys.exit(main())

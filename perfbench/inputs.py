"""Seeded input generation for the benchmark, written apart from treelines.

Every generator takes a ``numpy.random.Generator`` and returns plain data:
lines as ``(slope, dual_offset)`` Fraction pairs under the library's
convention ``y = slope*x - dual_offset``, trees as edge lists, and the text
documents the program parses.  General position is checked here, so the
program only ever receives valid inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from checks import crossing, homog, on_closed_segment

Line = Tuple[Fraction, Fraction]
Edges = List[Tuple[int, int]]
SPAN = 4000        # numerators of slopes (/997) and offsets (/1009)


def in_general_position(lines: Sequence[Line]) -> bool:
    """No two lines parallel and no three through one point."""
    if len({s for s, _ in lines}) != len(lines):
        return False
    points = [crossing(lines[i], lines[j])
              for i in range(len(lines)) for j in range(i + 1, len(lines))]
    return len(set(points)) == len(points)


def random_lines(rng, n: int) -> List[Line]:
    """n random rational lines in general position, sorted by slope."""
    while True:
        lines = [(Fraction(int(rng.integers(-SPAN, SPAN)), 997),
                  Fraction(int(rng.integers(-SPAN, SPAN)), 1009))
                 for _ in range(n)]
        if in_general_position(lines):
            return sorted(lines)


def random_cup(rng, n: int) -> List[Line]:
    """n lines whose dual points form a random strictly convex chain."""
    while True:
        slopes = sorted(Fraction(int(v), 997) for v in
                        rng.choice(2 * SPAN, n, replace=False) - SPAN)
        steps = sorted(Fraction(int(v), 1009) for v in
                       rng.choice(2 * SPAN, n - 1, replace=False) - SPAN)
        offset = Fraction(int(rng.integers(-SPAN, SPAN)), 1009)
        lines = [(slopes[0], offset)]
        for s0, s1, m in zip(slopes, slopes[1:], steps):
            offset += m * (s1 - s0)
            lines.append((s1, offset))
        if in_general_position(lines):
            return lines


def random_tree(rng, n: int) -> Edges:
    """A random recursive tree on 0..n-1 rooted at 0."""
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def path_edges(n: int) -> Edges:
    return [(v, v + 1) for v in range(n - 1)]


def star_edges(n: int) -> Edges:
    return [(0, v) for v in range(1, n)]


def spider_edges() -> Edges:
    """The third 5-vertex tree shape: a root of degree 3 with one long leg."""
    return [(0, 1), (0, 2), (0, 3), (3, 4)]


def lines_text(lines: Sequence[Line]) -> str:
    """``l`` rows with ids 1..n in slope order."""
    return "".join(f"l {k} {s} {b}\n"
                   for k, (s, b) in enumerate(sorted(lines), 1))


def instance_text(lines: Sequence[Line], edges: Edges,
                  iota: Sequence[int] = ()) -> str:
    out = [lines_text(lines)]
    out += [f"e {u} {v}\n" for u, v in edges]
    out += [f"a {v} {i}\n" for v, i in enumerate(iota)]
    return "".join(out)


def embedding_text(xs: Sequence[Fraction]) -> str:
    return "".join(f"p {v} {x}\n" for v, x in enumerate(xs))


def random_positions(rng, lines: Sequence[Line], n: int) -> List[Fraction]:
    """Random vertex abscissas spread over the arrangement's crossings, so
    most edges of a random tree cross."""
    xs = [crossing(lines[i], lines[j])[0]
          for i in range(len(lines)) for j in range(i + 1, len(lines))]
    lo, hi = min(xs), max(xs)
    return [lo + (hi - lo) * Fraction(int(rng.integers(0, 10**6)), 999983)
            for _ in range(n)]


def random_segment(rng, lines: Sequence[Line]):
    """A random segment inside the box of the arrangement's crossings that
    passes through none of them; endpoints as Fraction pairs."""
    pts = [crossing(lines[i], lines[j])
           for i in range(len(lines)) for j in range(i + 1, len(lines))]
    x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
    y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
    hp = [homog(p) for p in pts]
    while True:
        u = [Fraction(int(v), 9973) for v in rng.integers(0, 9973, size=4)]
        a = (x0 + (x1 - x0) * u[0], y0 + (y1 - y0) * u[1])
        b = (x0 + (x1 - x0) * u[2], y0 + (y1 - y0) * u[3])
        if a == b:
            continue
        ha, hb = homog(a), homog(b)
        if not any(on_closed_segment(ha, hb, q) for q in hp):
            return a, b


# -- six-line frames and lemma chains -----------------------------------------


def slope_of_degrees(deg: float) -> Fraction:
    """Rational slope within 1e-9 of tan(deg degrees)."""
    return Fraction(round(math.tan(math.radians(deg)) * 10**9), 10**9)


def random_frame_lines(rng, cup: bool) -> List[Line]:
    """Six lines tangent to a parabola (offsets +s^2 for a cup, -s^2 for a
    cap) whose angle gaps each exceed the total of the earlier ones by 5 to
    35 per cent, within a span of 88 degrees."""
    while True:
        gaps = [float(rng.uniform(0.5, 1.5))]
        total = gaps[0]
        for _ in range(4):
            g = total * float(rng.uniform(1.05, 1.35))
            gaps.append(g)
            total += g
        if total >= 88.0:
            continue
        degs = [float(rng.uniform(-25.0, 5.0))]
        for g in gaps:
            degs.append(degs[-1] + g)
        slopes = [slope_of_degrees(d) for d in degs]
        lines = [(s, s * s if cup else -s * s) for s in slopes]
        if in_general_position(lines):
            return lines


def random_chain_parameters(rng, count: int):
    """Angle tails, free lengths and r lengths of synthetic forced-length
    chains: five angles sorted descending in [0.02, 0.6], a3 in [0.1, 10]
    and three r in [1e-6, 5], as floats."""
    tails = rng.uniform(0.02, 0.6, size=(count, 5))
    tails.sort(axis=1)
    tails = tails[:, ::-1]
    a3s = rng.uniform(0.1, 10.0, size=count)
    rs = rng.uniform(1e-6, 5.0, size=(count, 3))
    return [(tuple(float(x) for x in tails[k]), float(a3s[k]),
             tuple(float(x) for x in rs[k])) for k in range(count)]

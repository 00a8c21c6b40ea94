"""Independent checks of the program's outputs, written apart from treelines.

Points are taken as ``(x, y)`` Fraction pairs and tested in integer
homogeneous coordinates ``(X, Y, W)`` with ``W > 0`` (denominators
cleared); angle gaps are compared as the angles of rotation vectors;
the forced-length chain is recomputed with mpmath at ``CHAIN_DPS`` digits,
above the program's working precision.  Each check raises
:class:`CheckFailed` with a message naming what is wrong.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import mpmath

Hom = Tuple[int, int, int]
Pair = Tuple[Fraction, Fraction]

CHAIN_DPS = 90          # the program's chain arithmetic runs at 60 digits
GUARD = Fraction(1, 10**9)


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- integer kernel -----------------------------------------------------------


def homog(p: Pair) -> Hom:
    x, y = Fraction(p[0]), Fraction(p[1])
    w = x.denominator * y.denominator // math.gcd(x.denominator,
                                                  y.denominator)
    return (x.numerator * (w // x.denominator),
            y.numerator * (w // y.denominator), w)


def orient(p: Hom, q: Hom, r: Hom) -> int:
    """Sign of the turn p -> q -> r: +1 left, 0 collinear, -1 right."""
    d = (p[0] * (q[1] * r[2] - q[2] * r[1])
         - p[1] * (q[0] * r[2] - q[2] * r[0])
         + p[2] * (q[0] * r[1] - q[1] * r[0]))
    return (d > 0) - (d < 0)


def _cmp(a: int, wa: int, b: int, wb: int) -> int:
    """Sign of a/wa - b/wb for positive wa, wb."""
    d = a * wb - b * wa
    return (d > 0) - (d < 0)


def on_closed_segment(a: Hom, b: Hom, p: Hom) -> bool:
    if orient(a, b, p) != 0:
        return False
    for k in (0, 1):
        lo, hi = (a, b) if _cmp(a[k], a[2], b[k], b[2]) <= 0 else (b, a)
        if _cmp(p[k], p[2], lo[k], lo[2]) < 0 or \
                _cmp(p[k], p[2], hi[k], hi[2]) > 0:
            return False
    return True


def crossing(l1: Pair, l2: Pair) -> Pair:
    """The common point of two non-parallel lines y = s*x - b."""
    x = (l1[1] - l2[1]) / (l1[0] - l2[0])
    return x, l1[0] * x - l1[1]


def same_point(p: Hom, q: Hom) -> bool:
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


# -- embeddings ---------------------------------------------------------------


def crossings(points: Sequence[Pair], edges: Sequence[Tuple[int, int]]
              ) -> Tuple[bool, Set[FrozenSet[Tuple[int, int]]]]:
    """Crossing-free verdict and the set of properly crossing edge pairs.

    A drawing is crossing-free when its vertex points are distinct, no
    vertex lies on a closed edge it is not an end of, and no two edges
    cross properly; any other contact implies one of these.  Zero-length
    edges take part in no pair."""
    hp = [homog(p) for p in points]
    n = len(hp)
    clean = all(not same_point(hp[u], hp[v])
                for u in range(n) for v in range(u + 1, n))
    segs = [(u, v) for u, v in edges if not same_point(hp[u], hp[v])]
    for w in range(n):
        for u, v in segs:
            if w not in (u, v) and on_closed_segment(hp[u], hp[v], hp[w]):
                clean = False
    proper: Set[FrozenSet[Tuple[int, int]]] = set()
    for k, (a, b) in enumerate(segs):
        for c, d in segs[k + 1:]:
            o1 = orient(hp[a], hp[b], hp[c])
            o2 = orient(hp[a], hp[b], hp[d])
            o3 = orient(hp[c], hp[d], hp[a])
            o4 = orient(hp[c], hp[d], hp[b])
            if o1 * o2 < 0 and o3 * o4 < 0:
                proper.add(frozenset({(a, b), (c, d)}))
    return clean and not proper, proper


def check_solution(points: Sequence[Pair], edges) -> None:
    free, proper = crossings(points, edges)
    require(free, f"solver embedding is not crossing-free "
                  f"({len(proper)} proper crossings)")


def check_report(points: Sequence[Pair], edges, crossing_free: bool,
                 proper_pairs: Set[FrozenSet[Tuple[int, int]]]) -> None:
    """The program's verdict and proper crossings, as (u, v) edge pairs,
    against the integer checker."""
    free, proper = crossings(points, edges)
    require(crossing_free == free,
            f"crossing_free={crossing_free}, integer checker says {free}")
    require(proper_pairs == proper,
            f"{len(proper_pairs ^ proper)} properly crossing edge pairs "
            f"differ from the integer checker")


# -- caps, cups and angle-gap chains ------------------------------------------


def es_bound(n: int) -> int:
    """Largest k with C(2k-4, k-2) + 1 <= n (Erdos-Szekeres)."""
    k = 2
    while math.comb(2 * (k + 1) - 4, k - 1) + 1 <= n:
        k += 1
    return k


def dual_turn(lines: Sequence[Pair]) -> int:
    """+1 if the dual points (slope, dual_offset), in slope order, form a
    strictly convex chain, -1 if strictly concave, 0 otherwise."""
    pts = [homog(l) for l in sorted(lines)]
    turns = {orient(a, b, c) for a, b, c in zip(pts, pts[1:], pts[2:])}
    return turns.pop() if len(turns) == 1 and 0 not in turns else 0


def check_cap_cup(original: Sequence[Pair], kind: str,
                  subset: Sequence[Pair]) -> None:
    """A claimed cap ('cap') or cup ('cup') subset of ``original``."""
    require(set(subset) <= set(original), "subset holds foreign lines")
    require(len(set(subset)) == len(subset), "subset repeats a line")
    want = {"cap": -1, "cup": 1}[kind]
    require(dual_turn(subset) == want,
            f"dual points of the {kind} are not strictly "
            f"{'concave' if want < 0 else 'convex'}")
    require(len(subset) >= es_bound(len(original)),
            f"{kind} of {len(subset)} lines is below the Erdos-Szekeres "
            f"guarantee {es_bound(len(original))}")


def _gap_vector(s_lo: Fraction, s_hi: Fraction) -> Tuple[int, int]:
    """(1 + i*s_hi) / (1 + i*s_lo) up to a positive factor: its angle is
    the angle gap of the two lines, in (0, pi)."""
    p1, q1 = s_lo.numerator, s_lo.denominator
    p2, q2 = s_hi.numerator, s_hi.denominator
    return q1 * q2 + p1 * p2, p2 * q1 - p1 * q2


def gap_cmp(slopes: Dict[int, Fraction], pair1, pair2) -> int:
    """-1 / 0 / +1 as the first angle gap is smaller / equal / larger."""
    a1, b1 = _gap_vector(*sorted(slopes[i] for i in pair1))
    a2, b2 = _gap_vector(*sorted(slopes[i] for i in pair2))
    d = b1 * a2 - a1 * b2
    return (d > 0) - (d < 0)


def check_monotone(slopes: Dict[int, Fraction], ids: Sequence[int],
                   nonincreasing: bool) -> None:
    require(list(ids) == sorted(set(ids)) and set(ids) <= set(slopes),
            "chain ids are not increasing line ids")
    require(len(ids) >= es_bound(len(slopes)),
            f"monotone chain of {len(ids)} is below the Erdos-Szekeres "
            f"guarantee {es_bound(len(slopes))}")
    bad = 1 if nonincreasing else -1
    for a, b, c in zip(ids, ids[1:], ids[2:]):
        require(gap_cmp(slopes, (b, c), (a, b)) != bad,
                f"gaps along {a}, {b}, {c} break monotonicity")


def check_doubling(slopes: Dict[int, Fraction], ids: Sequence[int],
                   lower: bool) -> None:
    require(len(ids) >= 3, "doubling chain below 3 lines")
    require(list(ids) == sorted(set(ids)) and set(ids) <= set(slopes),
            "chain ids are not increasing line ids")
    a, _ = _gap_vector(*sorted((slopes[ids[0]], slopes[ids[-1]])))
    require(a > 0, "chain span is not below a right angle")
    for j in range(1, len(ids) - 1):
        if lower:
            later, earlier = (ids[j], ids[j + 1]), (ids[0], ids[j])
        else:
            later, earlier = (ids[j - 1], ids[j]), (ids[j], ids[-1])
        require(gap_cmp(slopes, later, earlier) >= 0,
                f"doubling inequality fails at position {j}")


# -- region hulls and traversals ----------------------------------------------


def segment_samples(lines: Sequence[Pair], c: int, a: int, b: int
                    ) -> List[Pair]:
    """Points inside the open segments that make up the region R_{a,b} of a
    slope-sorted arrangement cut into c colour classes: two per segment."""
    n = len(lines)
    block = n // c
    members = [(i, a) for i in range((b - 1) * block, b * block)]
    if a != b:
        members += [(i, b) for i in range((a - 1) * block, a * block)]
    out = []
    for i, seg in members:
        s, off = lines[i]
        xs = sorted(crossing(lines[i], lines[j])[0]
                    for j in range(n) if j != i)
        lo = xs[(seg - 1) * block - 1] if seg > 1 else None
        hi = xs[seg * block - 1] if seg * block < n else None
        if lo is None:
            picks = [hi - 1, hi - Fraction(1, 3)]
        elif hi is None:
            picks = [lo + 1, lo + Fraction(1, 3)]
        else:
            picks = [(lo + hi) / 2, lo + (hi - lo) / 3]
        out += [(x, s * x - off) for x in picks]
    return out


def check_hull(sides: Sequence[Tuple[Pair, Pair]], samples: Sequence[Pair],
               max_sides: int = 5) -> None:
    """A hull given as counter-clockwise sides ``(anchor, direction)``: at
    most ``max_sides`` of them, and every sample inside or on it."""
    require(len(sides) <= max_sides,
            f"hull has {len(sides)} sides, bound {max_sides}")
    for anchor, (dx, dy) in sides:
        a = homog(anchor)
        b = homog((anchor[0] + dx, anchor[1] + dy))
        for p in samples:
            require(orient(a, b, homog(p)) >= 0,
                    f"segment point {p} lies outside the hull")


def check_reversal(forward: Sequence[Tuple[int, int, int, int]],
                   backward: Sequence[Tuple[int, int, int, int]]) -> None:
    """Traversal tuples (a, b, enter, exit) of a segment and its reverse."""
    want = [(a, b, leave, enter) for a, b, enter, leave in reversed(forward)]
    require(list(backward) == want, "comb_type is not reversal-symmetric")


def check_svg(data: bytes) -> None:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}")
    require(root.tag == "{http://www.w3.org/2000/svg}svg",
            f"SVG root is {root.tag}")


# -- six-line frames and configurations ---------------------------------------


def frame_expectation(lines: Sequence[Pair]) -> Tuple[str, str]:
    """Cap/cup kind and doubling variant ('lower' tried first) of six
    slope-sorted lines, as the frame construction promises them."""
    turn = dual_turn(lines)
    require(turn != 0, "frame lines form neither a cap nor a cup")
    slopes = {k + 1: s for k, (s, _) in enumerate(sorted(lines))}
    for lower, name in ((True, "lower"), (False, "upper")):
        try:
            check_doubling(slopes, list(range(1, 7)), lower)
            return ("cup" if turn > 0 else "cap"), name
        except CheckFailed:
            continue
    raise CheckFailed("frame lines have no doubling variant")


def check_rules_i_iii(lines: Sequence[Pair],
                      edges: Sequence[Tuple[Pair, Pair]]) -> None:
    """Incidence and rules (i) and (iii) of a three-edge configuration on
    six slope-sorted lines; edge j runs from line 2j-1 to line 2j."""
    lines = sorted(lines)
    for j in (1, 2, 3):
        (px, py), (qx, qy) = edges[j - 1]
        lo, hi = lines[2 * j - 2], lines[2 * j - 1]
        require(py == lo[0] * px - lo[1] and qy == hi[0] * qx - hi[1],
                f"edge {j} is off its lines")
        # (i): the apex lies strictly above edges 1 and 3, strictly below 2
        apex = crossing(lo, hi)
        require(min(px, qx) <= apex[0] <= max(px, qx) and px != qx,
                f"rule (i): edge {j} misses the apex abscissa")
        side = orient(homog((px, py)), homog((qx, qy)), homog(apex))
        above = side * (1 if qx > px else -1)
        require(above == (1 if j in (1, 3) else -1),
                f"rule (i) fails on edge {j}")
        # (iii): the endpoint on line 2j lies between the apex and the
        # point where line 2j crosses the next edge
        p2, q2 = edges[j % 3]
        fp = p2[1] - (hi[0] * p2[0] - hi[1])
        fq = q2[1] - (hi[0] * q2[0] - hi[1])
        require(fp * fq < 0, f"rule (iii): line {2 * j} does not cross "
                             f"edge {j % 3 + 1}")
        cx = p2[0] + fp / (fp - fq) * (q2[0] - p2[0])
        require(min(apex[0], cx) <= qx <= max(apex[0], cx),
                f"rule (iii) fails on edge {j}")


def check_chain_angles(lines: Sequence[Pair], alpha: Sequence) -> None:
    """The derived chain's angles: consecutive angle gaps of the six lines,
    and pi minus their sum."""
    with mpmath.workdps(CHAIN_DPS):
        ang = [mpmath.atan(mpmath.mpf(s.numerator) / s.denominator)
               for s, _ in sorted(lines)]
        want = [ang[k] - ang[k - 1] for k in range(1, 6)]
        want = [mpmath.pi - mpmath.fsum(want)] + want
        for k, (got, exp) in enumerate(zip(alpha, want), 1):
            require(abs(mpmath.mpf(got) - exp) < mpmath.mpf(10) ** -50,
                    f"alpha_{k} differs from the recomputed angle")


# -- the forced-length chain --------------------------------------------------


def lemma_expectation(alpha: Sequence, a3, r: Sequence) -> Optional[str]:
    """Verdict of the forced-length chain recomputed at CHAIN_DPS digits:
    None when the sine ordering fails, else 'contradiction', 'consistent'
    or 'indeterminate' by the sign of the relative margin of b1 - r3 over
    a3, with a 1e-9 guard band."""
    with mpmath.workdps(CHAIN_DPS):
        s = [mpmath.sin(mpmath.mpf(x)) for x in alpha]
        down = s[0] >= s[1] and all(s[k] >= s[k + 1] for k in range(1, 5))
        up = s[0] >= s[5] and all(s[k] <= s[k + 1] for k in range(1, 5))
        if not (down or up):
            return None
        a3 = mpmath.mpf(a3)
        r1, r2, r3 = (mpmath.mpf(x) for x in r)
        b1 = s[1] / s[0] * (s[3] / s[2] * (s[5] / s[4] * a3 - r2) - r1)
        lhs = b1 - r3
        margin = (lhs - a3) / max(abs(lhs), abs(a3), mpmath.mpf(1))
        guard = mpmath.mpf(GUARD.numerator) / GUARD.denominator
        if abs(margin) <= guard:
            return "indeterminate"
        return "consistent" if margin > 0 else "contradiction"


def check_lemma(verdict: Optional[str], expected: Optional[str]) -> None:
    """``verdict`` is the program's (None for a hypothesis failure)."""
    require(verdict != "consistent", "a chain was judged consistent")
    require(verdict == expected,
            f"lemma verdict {verdict}, recomputed {expected}")

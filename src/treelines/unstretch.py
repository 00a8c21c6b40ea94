"""The unstretchability pipeline: six-line frames, the three-edge
configuration rules, the sine chain of forced lengths, and a randomized
feasibility oracle that hunts for counterexample configurations.

Configuration checks are exact (rational).  The sine chain is decided in
float64 wherever an a-priori error bound certifies the verdict of the
high-precision path, and by that path, at DPS digits with an explicit
guard band on its one final comparison, everywhere else.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, Optional, Sequence, Tuple

import mpmath
import numpy as np

from .geometry import (
    Line,
    Point,
    Segment,
    angle_gap,
    clip_to_halfplanes,
    convex_hull,
    cross,
    line_through,
    orientation,
    side,
)
from .lineset import CapCup, LineSet, classify_cap_cup
from .ramsey import Variant, doubling_failure

DPS = 60                      # working precision (decimal digits)
GUARD_BAND = Fraction(1, 10**9)  # relative guard on the final comparison


class FrameError(ValueError):
    pass


class SpanTooWide(FrameError):
    pass


class NotDoubling(FrameError):
    def __init__(self, j: int):
        super().__init__(f"doubling inequality fails at position {j}")
        self.j = j


class NotCapOrCup(FrameError):
    pass


class HypothesisFail(ValueError):
    """Neither sine ordering holds; the lemma's conclusion is not certified."""


@dataclass(frozen=True)
class SixLineFrame:
    """Six slope-ordered lines forming a cap or cup, with angle span below a
    right angle and doubling gap growth (one of the two inequality
    families).  ``sub``, the LineSet of the six lines, keeps their
    crossings; it is left out of equality, hash and repr.  Kept at
    construction, outside the compared fields: ``hull_halfplanes``, the
    CCW hull of the 15 crossings as the primitive integer triples
    (A, B, C) of its sides, the hull on A*x + B*y + C >= 0 (see
    ``geometry.line_through``)."""

    lines: Tuple[Line, ...]     # ids 1..6 in slope order
    variant: Variant
    cap_cup: CapCup
    sub: LineSet = field(compare=False, repr=False)

    def __post_init__(self):
        hull = convex_hull(self.sub.intersection_points())
        object.__setattr__(self, "hull_halfplanes", tuple(
            line_through(u.homogeneous, v.homogeneous)
            for u, v in zip(hull, hull[1:] + hull[:1])))

    def line(self, k: int) -> Line:
        return self.lines[k - 1]

    def apex(self, j: int) -> Point:
        """Intersection of the two lines edge j joins (l_{2j-1}, l_{2j})."""
        return self.sub.intersection(2 * j - 1, 2 * j)


def validate_frame(ls: LineSet, ids: Sequence[int]) -> SixLineFrame:
    """Check the frame hypotheses exactly and return the validated frame."""
    if len(ids) != 6:
        raise FrameError("a frame needs exactly 6 line ids")
    lines = [ls.line(i) for i in ids]
    if any(a.slope >= b.slope for a, b in zip(lines, lines[1:])):
        raise FrameError("ids must be strictly increasing in slope")
    if angle_gap(lines[0], lines[5]) >= 0:
        raise SpanTooWide("extreme angle gap is not acute")

    for variant in (Variant.LOWER, Variant.UPPER):
        bad = doubling_failure(lines, variant)
        if bad is None:
            break
    else:
        raise NotDoubling(bad)
    sub = ls.subset(ids)
    kind = classify_cap_cup(sub)
    if kind == CapCup.NEITHER:
        raise NotCapOrCup("the six lines form neither a cap nor a cup")
    return SixLineFrame(tuple(sub.lines), variant, kind, sub)


@dataclass(frozen=True)
class TripleEdgeConfig:
    """Three candidate edges; edge j runs from its endpoint on l_{2j-1} to
    its endpoint on l_{2j}."""

    edges: Tuple[Segment, Segment, Segment]


def config_from_params(frame: SixLineFrame,
                       params: Sequence[Fraction]) -> TripleEdgeConfig:
    """Build a configuration from the six endpoint x-parameters
    (u1, t1, u2, t2, u3, t3): u_j on l_{2j-1}, t_j on l_{2j}."""
    edges = []
    for j in (1, 2, 3):
        u, t = params[2 * (j - 1)], params[2 * (j - 1) + 1]
        edges.append(Segment(frame.line(2 * j - 1).point_at(u),
                             frame.line(2 * j).point_at(t)))
    return TripleEdgeConfig(tuple(edges))


@dataclass(frozen=True)
class ConfigVerdict:
    ok: bool
    # (rule, edge index) pairs: ("incidence", j) for an endpoint off its
    # line, else the label that rule_i, rule_ii or rule_iii gives edge j
    failures: Tuple[Tuple[str, int], ...] = ()


_NEXT_EDGE = {1: 2, 2: 3, 3: 1}   # j -> j+1 with modulo class 0 written as 3


def rule_i(frame: SixLineFrame, cfg: TripleEdgeConfig, j: int):
    """None where edge j meets rule (i), else "i".  Rule (i): the vertical
    line through the apex of edge j's line pair meets the closed edge
    strictly below the apex for j in {1, 3} and strictly above for j = 2."""
    e = cfg.edges[j - 1]
    apex = frame.apex(j)
    lo, hi = (e.p, e.q) if e.p.x <= e.q.x else (e.q, e.p)
    # the apex lies left of the edge run left to right, so above it,
    # exactly when the orientation is +1
    meets = lo.x <= apex.x <= hi.x and lo.x != hi.x and \
        orientation(lo, hi, apex) == (1 if j in (1, 3) else -1)
    return None if meets else "i"


def rule_ii(frame: SixLineFrame, cfg: TripleEdgeConfig, j: int):
    """None where edge j meets rule (ii), else "ii".  Rule (ii): the edge
    avoids the convex hull of the 15 pairwise intersection points of the
    six lines; a single common point already counts as meeting the hull."""
    e = cfg.edges[j - 1]
    clip = clip_to_halfplanes(frame.hull_halfplanes, e.p.homogeneous,
                              e.q.homogeneous)
    return None if clip is None else "ii"


def rule_iii(frame: SixLineFrame, cfg: TripleEdgeConfig, j: int):
    """None where edge j meets rule (iii), else "iii", or "iii-missing"
    where the next edge does not cross l_{2j}.  Rule (iii): the endpoint of
    edge j on l_{2j} lies between the apex and the point where l_{2j}
    crosses the next edge."""
    l = frame.line(2 * j).homogeneous
    nxt = cfg.edges[_NEXT_EDGE[j] - 1]
    # the crossing lies inside nxt exactly when its ends are strictly on
    # either side of l_{2j}
    if side(l, nxt.p.homogeneous) * side(l, nxt.q.homogeneous) >= 0:
        return "iii-missing"
    X, _, W = cross(l, nxt.line)
    lo, hi = sorted((frame.apex(j).x, Fraction(X, W)))
    return None if lo <= cfg.edges[j - 1].q.x <= hi else "iii"


def validate_config(frame: SixLineFrame, cfg: TripleEdgeConfig
                    ) -> ConfigVerdict:
    """Exact check of every edge against ``rule_i``, ``rule_ii`` and
    ``rule_iii``: ``failures`` lists each failing (rule, edge), rule by
    rule and then edge by edge, or only the edges with an endpoint off its
    line.  The control search of ``feasibility_search`` ignores "ii"."""
    failures = [("incidence", j) for j, e in enumerate(cfg.edges, 1)
                if not frame.line(2 * j - 1).contains(e.p)
                or not frame.line(2 * j).contains(e.q)]
    if not failures:
        failures = [(fail, j) for rule in (rule_i, rule_ii, rule_iii)
                    for j in (1, 2, 3) if (fail := rule(frame, cfg, j))]
    return ConfigVerdict(not failures, tuple(failures))


@dataclass(frozen=True)
class ChainValues:
    """The angle and length data of the forced-length chain.

    alpha[0] is pi minus the sum of the others; a[2] (the free length) and
    r[0..2] drive the chain; a, b are the dependent lengths."""

    alpha: Tuple[mpmath.mpf, ...]      # alpha_1 .. alpha_6
    a: Tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]
    b: Tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]
    r: Tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]


def chain_from_parameters(alpha_tail: Sequence, a3, r) -> ChainValues:
    """Synthesize ChainValues from alpha_2..alpha_6, the free length a3 and
    the three r lengths, propagating the forced equations."""
    with mpmath.workdps(DPS):
        tail = [mpmath.mpf(str(x)) for x in alpha_tail]
        if len(tail) != 5:
            raise ValueError("need alpha_2..alpha_6")
        a1 = mpmath.pi - mpmath.fsum(tail)
        alpha = (a1, *tail)
        a3 = mpmath.mpf(str(a3))
        r = tuple(mpmath.mpf(str(x)) for x in r)
        a, b = _forced_lengths([mpmath.sin(x) for x in alpha], a3, r)
        return ChainValues(alpha, a, b, r)


def _forced_lengths(s: Sequence, a3, r: Sequence):
    """The lengths (a1, a2, a3) and (b1, b2, b3) the sines s of alpha_1 ..
    alpha_6 force from the free length a3 and r_1, r_2, at the caller's
    precision: DPS digits for mpf values, float64 for floats."""
    b3 = s[5] / s[4] * a3
    a2 = b3 - r[1]
    b2 = s[3] / s[2] * a2
    a1 = b2 - r[0]
    b1 = s[1] / s[0] * a1
    return (a1, a2, a3), (b1, b2, b3)


def derive_chain(frame: SixLineFrame, cfg: TripleEdgeConfig) -> ChainValues:
    """Angles and lengths of the rotated-edge construction, computed to
    high precision from the exact rational coordinates."""
    with mpmath.workdps(DPS):
        def to_mp(x: Fraction):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)

        angles = [mpmath.atan(to_mp(l.slope)) for l in frame.lines]
        tail = [angles[k] - angles[k - 1] for k in range(1, 6)]
        alpha = (mpmath.pi - mpmath.fsum(tail), *tail)

        # B_j: intersection of l_{2j} and l_{2(j+1 mod 3)}
        bpts = [frame.sub.intersection(2 * j, 2 * _NEXT_EDGE[j])
                for j in (1, 2, 3)]
        apts = [e.q for e in cfg.edges]

        def dist(p: Point, q: Point):
            return mpmath.hypot(to_mp(p.x - q.x), to_mp(p.y - q.y))

        a = tuple(dist(apts[j], bpts[j]) for j in range(3))
        b = tuple(dist(bpts[j], apts[j - 1]) for j in range(3))
        r = tuple(dist(bpts[j], bpts[(j + 1) % 3]) for j in range(3))
        return ChainValues(alpha, a, b, r)


class Lemma24Result(enum.Enum):
    CONSISTENT = "consistent"
    CONTRADICTION = "contradiction"
    INDETERMINATE = "indeterminate"


_NO_ORDERING = "no monotone sine ordering with alpha_1 maximal"


# the pairs of sines that _sine_ordering compares
_COMPARED_SINES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))


def _sine_ordering(s: Sequence) -> bool:
    """The lemma's hypothesis on sin(alpha_1) .. sin(alpha_6)."""
    down = all(s[k] >= s[k + 1] for k in range(1, 5)) and s[0] >= s[1]
    up = all(s[k] <= s[k + 1] for k in range(1, 5)) and s[0] >= s[5]
    return down or up


def lemma24_check(cv: ChainValues) -> Lemma24Result:
    """Propagate the forced length chain and test whether the strict gap
    condition b1 - r3 > a3 could hold.  CONTRADICTION means it cannot, which
    the lemma guarantees whenever the sine ordering hypothesis holds.

    The chain in float64 decides first (``_float_verdict``): it answers
    only when its error bound makes its answer certain to be the one of
    the DPS-digit path, and hands every other chain, every INDETERMINATE
    one among them, to that path (``_guarded_verdict``)."""
    verdict = _float_verdict(cv)
    return verdict if verdict is not None else _guarded_verdict(cv)


def _guarded_verdict(cv: ChainValues) -> Lemma24Result:
    """The sine ordering and the chain's margin at DPS digits, with the
    relative guard band GUARD_BAND on the margin."""
    with mpmath.workdps(DPS):
        s = [mpmath.sin(x) for x in cv.alpha]
        if not _sine_ordering(s):
            raise HypothesisFail(_NO_ORDERING)
        a3 = cv.a[2]
        _, b = _forced_lengths(s, a3, cv.r)
        lhs = b[0] - cv.r[2]
        scale = max(abs(lhs), abs(a3), mpmath.mpf(1))
        margin = (lhs - a3) / scale
        guard = mpmath.mpf(GUARD_BAND.numerator) / GUARD_BAND.denominator
        if abs(margin) <= guard:
            return Lemma24Result.INDETERMINATE
        return (Lemma24Result.CONSISTENT if margin > 0
                else Lemma24Result.CONTRADICTION)


# -- the float64 decision of the chain
#
# _float_verdict runs _forced_lengths on float64 sines and inputs and
# answers only where its margin clears _FLOAT_GUARD by more than an
# a-priori bound on its distance from the DPS-digit margin (a running
# error bound, Higham, "Accuracy and Stability of Numerical Algorithms",
# ch. 3).  Below, u = 2**-53 is the rounding unit, s_k the DPS-digit sines
# and R_j = s[2j - 1] / s[2j - 2].
# - math.sin is assumed within _SIN_ULPS units in the last place of its
#   result (glibc's is within 1), which tests/test_unstretch.py checks
#   against mpmath.sin.  So the float sine m_k of float(alpha_k) is within
#   e_k = (_SIN_ULPS + 2) max(ulp(m_k), ulp(float(alpha_k))) of s_k: one
#   ulp carries float(alpha_k)'s distance from alpha_k (|sin'| <= 1), one
#   holds the DPS-digit sine, within 2**-190 of the sine, relative.
# - Pairs of m_k that differ by more than 2 (e_a + e_b), the 2 covering
#   the test's own rounding, order as their s_k do.  Under the ordering,
#   R1, R1 R2 and R1 R2 R3 are at most 1.
# - With every m_k normal and rho = max e_k / m_k <= 2**-20, each float
#   ratio is normal and within 2.03 rho + 1.01 u of its R_j, relative.
# - b1 = R1 R2 R3 a3 - R1 R2 r2 - R1 r1.  Each term carries at most three
#   ratios, its input's conversion and three products; the roundings of a2, a1
#   and b1 - r3 and r3's conversion each move b1 - r3 by less than u P, where
#   P = R1 R2 R3 |a3| + R1 R2 |r2| + R1 |r1| + |r3|.  So the float b1 - r3 is
#   within (6.1 rho + 11 u) P of the exact recurrence on the s_k, and the
#   DPS-digit one, rounded to 203 bits per operation, within 10 * 2**-203 P.
# - diff = b1 - r3 - a3 adds a3's conversion and one rounding, so it is
#   within E = (8 rho + 2**-48) P + 2**-50 (|a3| + |diff| + 1) of the
#   DPS-digit diff.  Dividing by scale = max(|b1 - r3|, |a3|, 1) >= 1,
#   itself within E, with |diff| <= 2 scale, puts the margin within E +
#   2 E + 2 u of the DPS-digit one; the bound 4 E also covers the float
#   evaluation of P and of the bound, each within a factor 1 + 2**-17.
# - No ratio underflows, and a subtraction whose result does is exact; any
#   other underflow is off by at most 2**-1074, which the products of
#   ratios above do not enlarge, and the 2**-50 in E covers it.  An overflow
#   makes an inf or a nan, so bound + margin is not finite: refused.
_SIN_ULPS = 4

# the DPS-digit margin is within 2**-200 of the exact margin of its own b1
# - r3 (two roundings of a value of modulus at most 2), and its guard
# within 2**-230 of GUARD_BAND; a margin farther than _FLOAT_GUARD from 0
# therefore clears the guard at DPS digits too
_FLOAT_GUARD = float(GUARD_BAND) + 2.0 ** -60


def _float_verdict(cv: ChainValues) -> Optional[Lemma24Result]:
    """lemma24_check's verdict from the chain in float64, or None where the
    bound above cannot certify the DPS-digit verdict: a sine comparison or
    a margin within it of a decision, every INDETERMINATE verdict, inputs
    that are not finite, sines too small for their error, and overflow.
    Raises HypothesisFail, as the DPS-digit path does, when the sine
    ordering certainly fails."""
    x = [float(v) for v in (*cv.alpha, cv.a[2], *cv.r)]
    if not all(map(math.isfinite, x)):
        return None
    m = [math.sin(f) for f in x[:6]]
    e = [(_SIN_ULPS + 2) * max(math.ulp(v), math.ulp(f))
         for v, f in zip(m, x)]
    if any(abs(m[a] - m[b]) <= 2 * (e[a] + e[b]) for a, b in _COMPARED_SINES):
        return None
    if not _sine_ordering(m):
        raise HypothesisFail(_NO_ORDERING)
    # 2**-1022 is the smallest normal float
    if min(m) < 2.0 ** -1022:
        return None
    rho = max(ek / mk for ek, mk in zip(e, m))
    if rho > 2.0 ** -20:
        return None
    a3, r = x[6], x[7:]
    lhs = _forced_lengths(m, a3, r)[1][0] - r[2]
    diff = lhs - a3
    margin = diff / max(abs(lhs), abs(a3), 1.0)
    p = _forced_lengths(m, abs(a3), [-abs(v) for v in r])[1][0] + abs(r[2])
    bound = 4 * ((8 * rho + 2.0 ** -48) * p
                 + 2.0 ** -50 * (abs(a3) + abs(diff) + 1))
    if not math.isfinite(bound + margin):
        return None
    if margin > _FLOAT_GUARD + bound:
        return Lemma24Result.CONSISTENT
    if margin < -_FLOAT_GUARD - bound:
        return Lemma24Result.CONTRADICTION
    return None


# ---------------------------------------------------------------------------
# randomized feasibility search

# edge j carries the betweenness rule of _PREV[j]
_PREV = {k: j for j, k in _NEXT_EDGE.items()}

# a search draws samples // 21 t-triples; every sample budget, the
# benchmark's among them, was set for the triples that this draws
_CONFIGS_PER_TRIPLE = 21

# the columns of a batch that the rule for the promising triples counts
# first; on the benchmark's frames the 40 lie within the first 1,200
_COUNTED_PREFIX = 2_000

# the columns that _solve_edge works on at a time: the twenty or so (n,)
# rows of _candidates then take under 1 MiB, and a batch's edge 1 ran 30 %
# faster in blocks of 5,000 than in one of 20,000
_BLOCK = 5_000


def feasibility_search(frame: SixLineFrame, samples: int, seed: int,
                       skip_properties: FrozenSet[str] = frozenset()
                       ) -> Optional[TripleEdgeConfig]:
    """Hunt for a configuration that ``validate_config`` accepts.

    The three even-line endpoints (t_1, t_2, t_3) are sampled stratified
    around each apex; given them, the remaining freedom of each edge is its
    odd-line abscissa u_j, and ``rule_i`` and ``rule_iii`` cut the feasible
    u_j out by sign conditions that change only at a handful of rational
    breakpoints.  The screen therefore tests one u per breakpoint cell
    instead of sampling u blindly, with local refinement of near-feasible
    triples; every screen survivor is re-checked exactly.  Returns the
    first exactly-valid configuration in deterministic (batch, index)
    order, or None once the sample budget is exhausted.

    ``skip_properties`` is empty, or ``{"ii"}`` for the control search,
    which drops the float screen of ``rule_ii`` and ignores its exact
    failures; any other set raises ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if skip_properties not in (frozenset(), frozenset({"ii"})):
        raise ValueError("skip_properties must be empty or {'ii'}, got "
                         f"{sorted(skip_properties)}")
    rng = np.random.default_rng(seed)
    geo = _FrameFloats(frame)
    budget = max(1, samples // _CONFIGS_PER_TRIPLE)
    batch = 20_000
    drawn = 0
    promising = np.empty((3, 0))
    while drawn < budget:
        take = min(batch, budget - drawn)
        drawn += take
        n_refine = min(take // 2, promising.shape[1] * 200)
        t = geo.sample_triples(rng, take - n_refine)
        if n_refine:
            t = np.concatenate(
                [t, geo.perturb_triples(rng, promising, n_refine)], axis=1)
        full, u, ok1 = geo.solve_batch(t)
        cand = full
        if "ii" not in skip_properties:
            clear = ~geo.clearly_meets_hull(u, t[:, full])
            cand, u = full[clear], u[:, clear]
        for idx, u_col in zip(cand, u.T):
            params = []
            for j in (1, 2, 3):
                params.append(Fraction(float(u_col[j - 1])))
                params.append(Fraction(float(t[j - 1, idx])))
            cfg = config_from_params(frame, params)
            if all(rule in skip_properties
                   for rule, _ in validate_config(frame, cfg).failures):
                return cfg
        if drawn < budget:      # the next batch perturbs them
            promising = t[:, geo._promising(t, ok1, full)]
    return None


class _FrameFloats:
    """Float mirror of a frame for the vectorized screening stage."""

    def __init__(self, frame: SixLineFrame):
        self.s = np.array([float(l.slope) for l in frame.lines])
        self.b = np.array([float(l.dual_offset) for l in frame.lines])
        self.apex = np.array([[float(a.x), float(a.y)]
                              for a in map(frame.apex, (1, 2, 3))])
        pts = np.array([[float(p.x), float(p.y)]
                        for p in frame.sub.intersection_points()])
        center = pts.mean(axis=0)
        self.radius = max(1.0, np.max(np.linalg.norm(pts - center, axis=1)))
        # the exact line triples as plain floats, clipped with W = 1
        self.hull_edges = [tuple(map(float, s)) for s in frame.hull_halfplanes]

    def clearly_meets_hull(self, u, t) -> np.ndarray:
        """Float pre-screen of ``rule_ii`` on the (3, m) columns u, t of a
        batch: True where some edge cuts well into the hull of the 15
        crossings, so the exact check cannot pass.  Borderline columns are
        False and go to the exact check."""
        return (self._hull_overlap(u, t) > 1e-9).any(axis=0)

    def _hull_overlap(self, u, t) -> np.ndarray:
        """(3, m): the length of each edge's parameter interval inside the
        hull, 0.0 where it is empty.  This is clip_to_halfplanes with W = 1,
        run on all edges at once: the same float64 operations per element,
        with a column's bounds updated only while it is live."""
        py = self.s[0::2, None] * u - self.b[0::2, None]
        qy = self.s[1::2, None] * t - self.b[1::2, None]
        n_lo, d_lo, n_hi, d_hi = np.zeros_like(u), *np.ones((3, *u.shape))
        live = np.ones(u.shape, dtype=bool)
        w = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for l in self.hull_edges:
                a = side(l, (u, py, w)) * w
                b = side(l, (t, qy, w)) * w
                live &= ~((a < 0) & (b < 0))
                enter = live & (a < b) & (-a * d_lo > n_lo * (b - a))
                n_lo, d_lo = np.where(enter, (-a, b - a), (n_lo, d_lo))
                leave = live & (a > b) & (a * d_hi < n_hi * (a - b))
                n_hi, d_hi = np.where(leave, (a, a - b), (n_hi, d_hi))
                live &= ~(n_lo * d_hi > n_hi * d_lo)
            return np.where(live, n_hi / d_hi - n_lo / d_lo, 0.0)

    # -- sampling ----------------------------------------------------------
    def sample_triples(self, rng, n: int) -> np.ndarray:
        """(3, n) even-endpoint abscissas: log-uniform offsets from each
        apex abscissa, either side, over a wide range of scales."""
        off = rng.uniform(-4, 2.5, size=(3, n))
        np.power(10.0, off, out=off)
        off *= self.radius
        # the signs that rng.choice([-1.0, 1.0]) draws: a draw of 0 negates
        off *= rng.integers(0, 2, size=(3, n)) * 2.0 - 1.0
        off += self.apex[:, :1]
        return off

    def perturb_triples(self, rng, base: np.ndarray, n: int) -> np.ndarray:
        """Jitter near-feasible triples, preserving each t's apex side."""
        picks = rng.integers(0, base.shape[1], size=n)
        off = base[:, picks] - self.apex[:, :1]
        return self.apex[:, :1] + off * np.exp(rng.normal(0.0, 0.5,
                                                          size=(3, n)))

    # -- per-edge feasible-u solving ---------------------------------------
    def solve_batch(self, t: np.ndarray):
        """The search's float stage on a (3, n) batch of t-triples: the
        columns on which ``_solve_edge`` finds a u for all three edges, in
        index order, those u as a (3, m) array, and edge 1's verdicts on
        every column, which ``_promising`` reuses.

        Edge 1 runs on the whole batch, edge 2 only on the columns that
        edge 1 accepts, and edge 3 only on those that both accept.  A
        column's verdict and u do not depend on the other columns, so
        they are those of the three edges run on every column."""
        u1, ok1 = self._solve_edge(1, t)
        cols = np.flatnonzero(ok1)
        u2, ok2 = self._solve_edge(2, t[:, cols])
        cols = cols[ok2]
        u3, ok3 = self._solve_edge(3, t[:, cols])
        full = cols[ok3]
        u = np.stack([u1[full], u2[ok2][ok3], u3[ok3]])
        return full, u, ok1

    def _promising(self, t, ok1, full) -> np.ndarray:
        """The columns of the 40 promising triples of the batch t, the
        first 40 by falling count of feasible edges, each count in index
        order, given the columns full of count 3 and edge 1's verdicts
        ok1 that ``solve_batch`` returns.  Beyond those, the first
        _COUNTED_PREFIX columns are counted, with edge 1's verdicts
        reused; the whole batch is counted only when that prefix holds too
        few triples of count 2 to fill the 40."""
        short = 40 - len(full)
        if short <= 0:
            return full[:40]
        n = t.shape[1]
        for p in sorted({min(n, _COUNTED_PREFIX), n}):
            count = ok1[:p].astype(np.int64)
            for j in (2, 3):
                count += self._solve_edge(j, t[:, :p])[1]
            if np.count_nonzero(count == 2) >= short:
                break
        return np.concatenate(
            [full, *(np.flatnonzero(count == c) for c in (2, 1, 0))])[:40]

    def _solve_edge(self, j: int, t: np.ndarray):
        """Edge j's first candidate u per triple at which ``rule_i`` holds
        on edge j and ``rule_iii`` on edge _PREV[j], and whether it has
        one; row 0 of ``_candidates`` where it has none.  ``rule_ii``,
        which the control search ignores, is left to the caller.  The
        columns go through ``_candidates`` _BLOCK at a time."""
        n = t.shape[1]
        u, ok = np.empty(n), np.empty(n, dtype=bool)
        for c in range(0, n, _BLOCK):
            block = slice(c, c + _BLOCK)
            rows = self._candidates(j, t[:, block])
            u[block], ok[block] = next(rows)
            for u_k, ok_k in rows:
                np.copyto(u[block], u_k, where=ok_k & ~ok[block])
                ok[block] |= ok_k
        return u, ok

    def _candidates(self, j: int, t: np.ndarray):
        """Yield edge j's five candidate rows of u, each an (n,) array with
        its verdicts on ``rule_i`` and ``rule_iii``, one row at a time.

        Beyond the apex, the two rules change verdict only at four
        breakpoints, the roots of c1*u + c0 and d1*u + d0 and the u where
        the crossing abscissa meets tprev or has its pole, so one candidate
        per cell between them decides the edge.  The rows are built and
        tested in (n,) buffers with in-place ufuncs.  Every element goes
        through the same float64 operations, up to exact rewrites such as
        -x/y == -(x/y) and products with factors of +-1 or 0, as in the
        plain array expressions of the seven-candidate reference in
        tests/test_unstretch.py: the verdicts, and u where the edge is
        feasible, are bit-identical to its."""
        i = _PREV[j]
        ta = t[j - 1]
        tprev = t[i - 1]
        ax, ay = self.apex[j - 1]
        so, bo = self.s[2 * j - 2], self.b[2 * j - 2]
        se, be = self.s[2 * j - 1], self.b[2 * j - 1]
        si, bi = self.s[2 * i - 1], self.b[2 * i - 1]
        axi = self.apex[i - 1, 0]
        ya = se * ta - be
        dx = ta - ax

        # rule (i): the edge's height at the apex abscissa, relative to the
        # apex, is sign(c1*u + c0) * sign(ta - u)
        c1 = so * dx - ya + ay
        c0 = -bo * dx + ya * ax - ay * ta
        # rule (iii): side value of the u endpoint w.r.t. line l_{2i} is
        # d1*u + d0, with per-edge scalars d1 and d0; the crossing abscissa
        # is a ratio of linears in u
        d1 = so - si
        d0 = bi - bo
        v_a = ya - si * ta + bi
        dt = ta - tprev
        e1 = -v_a + d1 * dt
        e0 = v_a * tprev + d0 * dt
        del ya, dx, dt      # rows not read below: a smaller working set

        # u must sit on the far side of the apex from ta (rule (i) needs
        # the apex abscissa inside the edge's x-range); where ta is the
        # apex abscissa, side and flip are 0 and rule (i)'s product below
        # is 0 or NaN, never positive, on every row
        side = np.sign(ax - ta)
        flip = -side
        dist = np.empty((4, ta.shape[0]))
        work = np.empty_like(ta)

        # the roots -c0/c1, -d0/d1, -e0/e1 and -(d0 - v_a)/d1 as distances
        # (root - ax) * side = (x/y + ax) * -side beyond the apex; a zero
        # denominator, the scalar d1 among them, gives an infinite or NaN
        # distance
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(c0, c1, out=dist[0])
            dist[1] = d0 / d1
            np.divide(e0, e1, out=dist[2])
            np.subtract(d0, v_a, out=dist[3])
            dist[3] /= d1
            dist += ax
            dist *= flip
            # every distance that is not finite and positive becomes +0.0:
            # x - x is NaN for x infinite and +0.0 otherwise, and fmax
            # takes 0.0 over NaN and over anything below it
            for row in dist:
                np.subtract(row, row, out=work)
                row += work
        np.fmax(dist, 0.0, out=dist)
        _sort4(dist, work)
        del e1, e0

        want = -1.0 if j in (1, 3) else 1.0
        flip *= want
        g = np.sign(tprev - axi)
        tprev_g = tprev * g
        v_p, cx = np.empty((2, ta.shape[0]))
        flag = np.empty(ta.shape, dtype=bool)
        for k in range(5):
            # u = ax + side * mid: the midpoints of the cells between 0 and
            # the sorted distances, and a point past them
            if k < 4:
                u = dist[k] + (dist[k - 1] if k else 0.0)
                u *= 0.5
            else:
                u = dist[3] * 2.0
                u += self.radius
            u *= side
            u += ax

            np.multiply(u, c1, out=work)
            work += c0
            work *= flip
            ok = work > 0.0
            np.multiply(u, d1, out=v_p)
            v_p += d0
            np.multiply(v_p, v_a, out=work)
            ok &= np.less(work, 0.0, out=flag)
            # the crossing abscissa (v_p*ta - u*v_a) / (v_p - v_a) must be
            # finite and lie between axi and tprev: with g the sign of
            # tprev - axi, cx*g in [tprev*g, inf)
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                np.multiply(u, v_a, out=work)
                np.multiply(v_p, ta, out=cx)
                cx -= work
                v_p -= v_a
                cx /= v_p
                cx *= g
            ok &= np.greater_equal(cx, tprev_g, out=flag)
            ok &= np.less(cx, np.inf, out=flag)
            yield u, ok


def _sort4(d: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The four rows of d sorted in place, column by column, by the five
    comparators of the optimal 4-input sorting network (Knuth, TAOCP vol.
    3, 5.3.4), with low as a scratch row; returns d.  On values with no
    NaN and no -0.0 this is d.sort(axis=0) bit for bit, without numpy's
    separate sort of every column."""
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        np.minimum(d[a], d[b], out=low)
        np.maximum(d[a], d[b], out=d[b])
        d[a] = low
    return d

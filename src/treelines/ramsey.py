"""Combinatorial extraction: monochromatic paths in the complete 3-uniform
hypergraph and the monotone / doubling angle-gap line subsets they yield.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .geometry import Line, PostconditionError, angle_gap, at_infinity, \
    columns, compare_angle_gap, gap_ratio
from .lineset import ChainTable, LineSet, LineSetError, TooFew, \
    labelled_chains, ranked_chains


class Color(enum.Enum):
    """The colour of a triple and the label of its chains."""

    RED = "red"
    BLUE = "blue"


class Direction(enum.Enum):
    NON_DECREASING = "non_decreasing"
    NON_INCREASING = "non_increasing"


class Variant(enum.Enum):
    LOWER = "lower"   # gap(j, j+1) >= gap(1, j)
    UPPER = "upper"   # gap(j-1, j) >= gap(j, k)


class ChainTooShort(LineSetError):
    pass


@dataclass
class TripleColoring:
    """A total 2-coloring of the vertex triples {i<j<k} of [n], held as
    its rule: ``of(i, j, k)`` is the colour of the triple."""

    n: int
    of: Callable[[int, int, int], Color]


@dataclass(frozen=True)
class HyperPath:
    """Increasing vertex sequence whose consecutive triples share one color."""

    vertices: Tuple[int, ...]
    color: Color

    def __len__(self) -> int:
        return len(self.vertices)

    def check(self, tc: TripleColoring) -> bool:
        v = self.vertices
        return all(tc.of(v[j], v[j + 1], v[j + 2]) == self.color
                   for j in range(len(v) - 2))


@dataclass(frozen=True)
class MonotoneGapChain:
    ids: Tuple[int, ...]
    direction: Direction


@dataclass(frozen=True)
class DoublingChain:
    ids: Tuple[int, ...]
    variant: Variant


def mono_path_bound(n: int) -> int:
    """Largest k with C(2k-4, k-2) + 1 <= n: the Erdos-Szekeres-recursion
    guarantee on monochromatic path size."""
    if n < 3:
        raise ValueError("need n >= 3")
    k = 3
    while math.comb(2 * (k + 1) - 4, (k + 1) - 2) + 1 <= n:
        k += 1
    return k


def _longest_path(tables: Dict[Hashable, ChainTable]
                  ) -> Tuple[Tuple[int, ...], Hashable]:
    # the longest chain of the tables and its label, ties broken toward the
    # lexicographically smallest sequence; a sequence of three or more ids
    # has one label, so the sequences of two labels never tie
    top = max(t.top for t in tables.values())
    ends = {tuple(t.chain(c)): lab for lab, t in tables.items()
            if t.top == top for c in t.ends}
    seq = min(ends)
    return seq, ends[seq]


def longest_mono_path(tc: TripleColoring) -> HyperPath:
    """Longest monochromatic path via a dynamic program over ordered vertex
    pairs; ties broken toward the lexicographically smallest sequence."""
    if tc.n < 3:
        raise ValueError("need n >= 3")
    # every triple has a colour, so the first one is already a path of 3
    return HyperPath(*_longest_path(labelled_chains(tc.n, tc.of)))


def color_by_gaps(ls: LineSet) -> TripleColoring:
    """Red iff the later gap is strictly smaller than the earlier one:
    gap(i2, i3) < gap(i1, i2); Blue for >=."""
    n = len(ls)
    if n < 3:
        raise TooFew("need at least 3 lines")
    # each triple compares two of the C(n, 2) pairwise gaps
    gap = {(i, j): angle_gap(ls.line(i), ls.line(j))
           for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return TripleColoring(n, lambda i, j, k: (
        Color.RED if gap[j, k] < gap[i, j] else Color.BLUE))


def extract_monotone_gaps(ls: LineSet) -> MonotoneGapChain:
    """Subset of lines whose consecutive angle gaps are monotone, found as
    the longest monochromatic path of the gap colouring of
    :func:`color_by_gaps`, by the ranked-pair dynamic program on the
    pairwise gaps instead of the colouring itself."""
    n = len(ls)
    if n < 3:
        raise TooFew("need at least 3 lines")
    dirs = columns(at_infinity(1, l.slope) for l in ls.lines)
    # the lower label (a later gap below the earlier) is color_by_gaps' red
    chain = MonotoneGapChain(*_longest_path(ranked_chains(
        n, lambda lo, hi: gap_ratio(dirs[:, lo - 1], dirs[:, hi - 1]),
        Direction.NON_INCREASING, Direction.NON_DECREASING)))
    if not check_monotone(ls, chain):
        raise PostconditionError("extracted chain has non-monotone gaps")
    return chain


def check_monotone(ls: LineSet, chain: MonotoneGapChain) -> bool:
    lines = [ls.line(i) for i in chain.ids]
    # a falling chain fails where a later gap is larger, a rising one
    # where it is smaller
    bad = 1 if chain.direction == Direction.NON_INCREASING else -1
    return all(compare_angle_gap((b, c), (a, b)) != bad
               for a, b, c in zip(lines, lines[1:], lines[2:]))


def doubling_failure(lines: Sequence[Line],
                     variant: Variant) -> Optional[int]:
    """The 1-based position of the first inner line of the slope-ordered
    chain at which the variant's doubling inequality fails, or None when
    every inner line satisfies it."""
    for j in range(1, len(lines) - 1):
        if variant == Variant.LOWER:
            later = (lines[j], lines[j + 1])
            earlier = (lines[0], lines[j])
        else:
            later = (lines[j - 1], lines[j])
            earlier = (lines[j], lines[-1])
        if compare_angle_gap(later, earlier) < 0:
            return j + 1
    return None


def check_doubling(ls: LineSet, chain: DoublingChain) -> bool:
    """The doubling inequalities plus the span-below-right-angle condition."""
    lines = [ls.line(i) for i in chain.ids]
    if len(lines) < 3:
        return False
    if angle_gap(lines[0], lines[-1]) >= 0:
        return False
    return doubling_failure(lines, chain.variant) is None


def extract_doubling(ls: LineSet) -> DoublingChain:
    """Chain with gaps growing at least as fast as the total so far (or the
    mirror condition), taken as the power-of-two subsequence of a monotone
    chain of the majority slope-sign class."""
    n = len(ls)
    if n < 3:
        raise TooFew("need at least 3 lines")
    neg = [i for i, l in enumerate(ls, 1) if l.slope.numerator < 0]
    pos = [i for i, l in enumerate(ls, 1) if l.slope.numerator >= 0]
    majority = neg if len(neg) >= len(pos) else pos
    if len(majority) < 3:
        raise ChainTooShort("majority sign class below 3 lines")
    sub = ls.subset(majority)
    chain = extract_monotone_gaps(sub)
    m = len(chain.ids)
    if chain.direction == Direction.NON_DECREASING:
        picks = _doubling_indices(m)
        variant = Variant.LOWER
    else:
        picks = [m - 1 - i for i in reversed(_doubling_indices(m))]
        variant = Variant.UPPER
    ids = tuple(sub.parent_ids[chain.ids[i] - 1] for i in picks)
    if len(ids) < 3:
        raise ChainTooShort(f"doubling subsequence has {len(ids)} lines")
    result = DoublingChain(ids, variant)
    if not check_doubling(ls, result):
        raise PostconditionError("extracted chain fails the doubling check")
    return result


def _doubling_indices(m: int) -> List[int]:
    """0-based indices 2^0-1, 2^1-1, ..., capped below m."""
    out = []
    p = 1
    while p <= m:
        out.append(p - 1)
        p *= 2
    return out

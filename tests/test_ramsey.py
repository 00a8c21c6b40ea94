"""Monochromatic hyperpath extraction and angle-gap chain conditions."""

import itertools
from fractions import Fraction

import pytest

from treelines import lineset, ramsey
from treelines.geometry import (Line, PostconditionError, Ratio, angle_gap,
                                at_infinity, columns, gap_ratio, orientation,
                                scalar)
from treelines.lineset import (longest_cap_cup, ranked_chains,
                               verify_general_position)
from treelines.ramsey import (
    ChainTooShort,
    Color,
    Direction,
    DoublingChain,
    HyperPath,
    MonotoneGapChain,
    TripleColoring,
    Variant,
    check_doubling,
    check_monotone,
    color_by_gaps,
    extract_doubling,
    extract_monotone_gaps,
    labelled_chains,
    longest_mono_path,
    mono_path_bound,
)

from conftest import (DOUBLING_DEGREES, RIGHT_SPAN_DEGREES, angle_lineset,
                      column_key, dualize_line, mirrored, random_cup,
                      random_lines, tied_gap_lines)


def test_mono_path_bound_table():
    # thresholds n = C(2k-4, k-2) + 1: 3, 7, 21, 71, 253
    assert mono_path_bound(3) == 3
    assert mono_path_bound(6) == 3
    assert mono_path_bound(7) == 4
    assert mono_path_bound(20) == 4
    assert mono_path_bound(21) == 5
    assert mono_path_bound(70) == 5
    assert mono_path_bound(71) == 6
    assert mono_path_bound(253) == 7
    with pytest.raises(ValueError):
        mono_path_bound(2)


def _all_colorings(n, rng, trials):
    triples = list(itertools.combinations(range(1, n + 1), 3))
    for _ in range(trials):
        bits = rng.integers(0, 2, size=len(triples))
        colors = {t: (Color.RED if b else Color.BLUE)
                  for t, b in zip(triples, bits)}
        yield TripleColoring(n, lambda i, j, k, c=colors: c[i, j, k])


def _brute_longest(tc):
    best = 2
    verts = range(1, tc.n + 1)
    for size in range(3, tc.n + 1):
        found = False
        for seq in itertools.combinations(verts, size):
            for color in Color:
                if HyperPath(seq, color).check(tc):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def test_longest_mono_path_vs_brute_force(rng):
    for n, trials in ((5, 40), (7, 25), (9, 10)):
        for tc in _all_colorings(n, rng, trials):
            path = longest_mono_path(tc)
            assert path.check(tc)
            assert len(path) == _brute_longest(tc)


def test_longest_mono_path_meets_ramsey_bound(rng):
    for tc in _all_colorings(12, rng, 8):
        assert len(longest_mono_path(tc)) >= mono_path_bound(12)


def test_color_by_gaps_example():
    # slopes 0, 1, 3: gap(2,3) = atan3 - atan1 < atan1 - 0 = gap(1,2) -> RED
    ls = verify_general_position(
        [Line(scalar(0), scalar(0)), Line(scalar(1), scalar(1)),
         Line(scalar(3), scalar(5))])
    tc = color_by_gaps(ls)
    assert tc.of(1, 2, 3) == Color.RED
    # slopes 0, 1/10, 1: the later gap is larger -> BLUE
    ls2 = verify_general_position(
        [Line(scalar(0), scalar(0)), Line(Fraction(1, 10), scalar(1)),
         Line(scalar(1), scalar(5))])
    assert color_by_gaps(ls2).of(1, 2, 3) == Color.BLUE


def test_color_by_gaps_compares_the_two_gaps_of_each_triple(rng):
    # tied gaps colour BLUE: only a strictly smaller later gap is RED
    ties = 0
    for n in (3, 7, 12, 16):
        ls = tied_gap_lines(rng, n)
        tc = color_by_gaps(ls)
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            later = angle_gap(ls.line(j), ls.line(k))
            earlier = angle_gap(ls.line(i), ls.line(j))
            ties += later == earlier
            assert tc.of(i, j, k) == (Color.RED if later < earlier
                                      else Color.BLUE), (n, i, j, k)
    assert ties > 10


def test_extract_monotone_on_random_sets(rng):
    for _ in range(15):
        ls = random_lines(rng, 10)
        chain = extract_monotone_gaps(ls)
        assert check_monotone(ls, chain)
        assert len(chain.ids) >= mono_path_bound(10)
        assert list(chain.ids) == sorted(chain.ids)


def test_check_monotone_rejects():
    ls = angle_lineset([0, 1, 30, 31])
    bad = MonotoneGapChain((1, 2, 3, 4), Direction.NON_INCREASING)
    assert not check_monotone(ls, bad)
    good = MonotoneGapChain((1, 2, 3), Direction.NON_DECREASING)
    assert check_monotone(ls, good)


def test_doubling_chain_on_spread_angles():
    ls = angle_lineset(DOUBLING_DEGREES)
    chain = DoublingChain((1, 2, 3, 4, 5, 6), Variant.LOWER)
    assert check_doubling(ls, chain)
    mirrored = angle_lineset([-d for d in reversed(DOUBLING_DEGREES)])
    up = DoublingChain((1, 2, 3, 4, 5, 6), Variant.UPPER)
    assert check_doubling(mirrored, up)


def test_check_doubling_rejections():
    ls = angle_lineset(DOUBLING_DEGREES)
    assert not check_doubling(ls, DoublingChain((1, 2), Variant.LOWER))
    # equal gaps 0/20/40 fail strict acute-span doubling beyond j=1? they
    # satisfy gap(2,3) >= gap(1,2) but not gap(3,4) >= gap(1,3)
    eq = angle_lineset([0, 20, 40, 60])
    assert not check_doubling(eq, DoublingChain((1, 2, 3, 4), Variant.LOWER))
    wide = angle_lineset([0, 30, 80, 170])
    assert not check_doubling(wide, DoublingChain((1, 2, 3, 4),
                                                  Variant.LOWER))


def test_check_doubling_needs_an_acute_span():
    # doubling gaps whose span is exactly a right angle fail the check; the
    # same gaps with a span one degree smaller pass it
    chain = DoublingChain((1, 2, 3, 4, 5, 6), Variant.LOWER)
    right = angle_lineset(RIGHT_SPAN_DEGREES)
    assert angle_gap(right.line(1), right.line(6)) == 0
    assert not check_doubling(right, chain)
    assert check_doubling(angle_lineset(RIGHT_SPAN_DEGREES[:-1] + [44]),
                          chain)


def test_extract_doubling_on_designed_set():
    ls = angle_lineset(DOUBLING_DEGREES)
    chain = extract_doubling(ls)
    assert check_doubling(ls, chain)
    assert len(chain.ids) >= 3


def test_extract_doubling_random(rng):
    hits = 0
    for _ in range(20):
        ls = random_lines(rng, 12)
        try:
            chain = extract_doubling(ls)
        except ChainTooShort:
            continue
        hits += 1
        assert check_doubling(ls, chain)
        sub_ids = set(chain.ids)
        signs = {ls.line(i).slope >= 0 for i in sub_ids}
        assert len(signs) == 1        # one slope-sign class only
    assert hits > 0


def test_extract_doubling_maps_ids_back_to_the_input(rng):
    # a set whose majority slope class, the non-negative slopes, is not a
    # prefix of the ids, so the subset's ids differ from the input's
    while True:
        ls = random_lines(rng, 16)
        majority = [i for i, l in enumerate(ls, 1) if l.slope >= 0]
        if len(majority) > 8:
            break
    chain = extract_doubling(ls)
    assert set(chain.ids) <= set(majority)
    assert check_doubling(ls, chain)
    # the same chain found on the majority lines renumbered from 1
    sub = verify_general_position([ls.line(i) for i in majority])
    assert extract_doubling(sub).ids == tuple(
        majority.index(i) + 1 for i in chain.ids)


@pytest.mark.parametrize("extract, checker", [
    (extract_monotone_gaps, "check_monotone"),
    (extract_doubling, "check_doubling"),
])
def test_extractors_raise_when_the_chain_fails_its_check(
        extract, checker, monkeypatch):
    monkeypatch.setattr(ramsey, checker, lambda ls, chain: False)
    with pytest.raises(PostconditionError):
        extract(angle_lineset(DOUBLING_DEGREES))


def test_extract_doubling_too_short():
    ls = verify_general_position(
        [Line(scalar(-1), scalar(0)), Line(scalar(-2), scalar(1)),
         Line(scalar(1), scalar(3))])
    with pytest.raises(ChainTooShort):
        extract_doubling(ls)


def _assert_same_chains(n, key, lower, upper, label):
    # key is a scalar pair key, called here in its column form
    assert ranked_chains(n, column_key(key), lower, upper) == \
        labelled_chains(n, label)


def _assert_gap_chains_match(ls):
    tc = color_by_gaps(ls)
    _assert_same_chains(len(ls),
                        lambda i, j: angle_gap(ls.line(i), ls.line(j)),
                        Color.RED, Color.BLUE, tc.of)


def _cap_cup_labelling(ls):
    """The cap/cup key of ls on its ids 1..n, the slope between two dual
    points, and the triple label it induces, their orientation."""
    duals = [dualize_line(l) for l in ls]

    def key(i, j):
        p, q = duals[i - 1], duals[j - 1]
        return (q.y - p.y) / (q.x - p.x)
    return key, lambda i, j, k: orientation(
        duals[i - 1], duals[j - 1], duals[k - 1])


def _assert_cap_cup_chains_match(ls):
    key, label = _cap_cup_labelling(ls)
    _assert_same_chains(len(ls), key, -1, +1, label)


def test_chain_walks_back_a_longest_chain_of_its_label(rng):
    # from the code of each table's first longest entry, on random cups
    # and caps, the walk back reads a chain as long as the entry whose
    # triples all carry the table's label
    for n in range(3, 16):
        cup = random_cup(rng, n)
        for ls in (cup, mirrored(cup)):
            key, label = _cap_cup_labelling(ls)
            for lab, table in ranked_chains(n, column_key(key),
                                            -1, +1).items():
                top = max(table.length)
                chain = table.chain(table.length.index(top))
                assert len(chain) == top and chain == sorted(set(chain))
                assert all(label(*chain[a:a + 3]) == lab
                           for a in range(top - 2))


def test_chain_tables_hold_one_entry_per_pair_code(rng):
    # each list of a table over the ids 1..n has (n + 1)**2 entries, the
    # pair codes j*(n + 1) + k of 0 <= j, k <= n
    for n in (3, 8, 21):
        ls = tied_gap_lines(rng, n)
        key, label = _cap_cup_labelling(ls)
        for tables in (ranked_chains(n, column_key(key), -1, +1),
                       labelled_chains(n, label),
                       labelled_chains(n, color_by_gaps(ls).of)):
            assert tables
            for table in tables.values():
                assert table.base == n + 1
                assert len(table.length) == len(table.pred) == (n + 1) ** 2


def test_ranked_chains_match_labelled_chains_on_random_sets(rng):
    for n in range(3, 26):
        ls = random_lines(rng, n)
        _assert_gap_chains_match(ls)
        _assert_cap_cup_chains_match(ls)


def test_ranked_chains_match_labelled_chains_on_tied_gaps(rng):
    ties = 0
    for n in range(3, 26):
        ls = tied_gap_lines(rng, n)
        # consecutive equal gaps gap(i, j) == gap(j, k), which the two
        # labels must split as the colouring does (BLUE for >=)
        ties += sum(angle_gap(ls.line(i), ls.line(j))
                    == angle_gap(ls.line(j), ls.line(k))
                    for i, j, k in itertools.combinations(range(1, n + 1), 3))
        _assert_gap_chains_match(ls)
        _assert_cap_cup_chains_match(ls)
    assert ties > 100


def test_ranked_chains_break_float_ties_exactly(rng):
    # keys within 2**-77 of 1 all round to the float 1.0, so only the
    # exact comparison can rank them; small h make many keys tie exactly
    n = 14
    h = iter(int(v) for v in rng.integers(-4, 5, n * (n - 1) // 2))
    keys = {(i, j): 1 + Fraction(next(h), 2**80)
            for j in range(1, n + 1) for i in range(1, j)}
    assert {float(k) for k in keys.values()} == {1.0}
    assert 1 < len(set(keys.values())) < len(keys)
    _assert_same_chains(
        n, lambda i, j: keys[i, j], "lower", "upper",
        lambda i, j, k: "lower" if keys[j, k] < keys[i, j] else "upper")


def _assert_top_and_ends_scan_length(tables):
    """Each table's top and ends are the largest length and the codes
    that reach it, ascending, as a full scan of the length list finds
    them; returns the number of tables with more than one end."""
    for table in tables.values():
        top = max(table.length)
        assert table.top == top
        assert table.ends == [c for c, m in enumerate(table.length)
                              if m == top]
    return sum(len(table.ends) > 1 for table in tables.values())


def test_chain_tables_keep_the_top_and_ends_of_their_length(rng):
    # ranked_chains writes them during its sweep, labelled_chains at its
    # end, on cups, caps, gaps that tie exactly and keys that tie in float
    tied = 0
    for n in range(3, 18):
        cup = random_cup(rng, n)
        for ls in (cup, mirrored(cup), tied_gap_lines(rng, n)):
            dirs = [at_infinity(1, l.slope) for l in ls]
            key, label = _cap_cup_labelling(ls)
            tied += sum(map(_assert_top_and_ends_scan_length, (
                ranked_chains(n, column_key(key), -1, +1),
                ranked_chains(n, column_key(
                    lambda i, j: gap_ratio(dirs[i - 1], dirs[j - 1])),
                    Color.RED, Color.BLUE),
                labelled_chains(n, label),
                labelled_chains(n, color_by_gaps(ls).of))))
    n = 14
    h = iter(int(v) for v in rng.integers(-4, 5, n * (n - 1) // 2))
    keys = {(i, j): 1 + Fraction(next(h), 2**80)
            for j in range(1, n + 1) for i in range(1, j)}
    tied += _assert_top_and_ends_scan_length(ranked_chains(
        n, column_key(lambda i, j: keys[i, j]), "lower", "upper"))
    # the top is reached by several pairs often enough to tell a sweep
    # that keeps only the first of them
    assert tied > 50


def _assert_ratio_and_fraction_keys_agree(n, ratio_key):
    """The Ratio keys and the equal Fractions both give the tables of the
    exact labelling."""
    def frac(i, j):
        return Fraction(*ratio_key(i, j))

    def label(i, j, k):
        return "lower" if frac(j, k) < frac(i, j) else "upper"

    for key in (ratio_key, frac):
        _assert_same_chains(n, key, "lower", "upper", label)


def _gap_key(ls):
    return lambda i, j: gap_ratio(at_infinity(1, ls.line(i).slope),
                                  at_infinity(1, ls.line(j).slope))


def test_ranked_chains_take_ratio_keys_as_their_fractions(rng):
    # random sets, integer slopes with exactly tied gaps, and slopes near
    # 10**200 whose gaps are beyond float range
    for n in (3, 7, 12, 18):
        for ls in (random_lines(rng, n), tied_gap_lines(rng, n)):
            _assert_ratio_and_fraction_keys_agree(n, _gap_key(ls))
    huge = verify_general_position(
        [Line(Fraction(10**200 + k * k), Fraction(7 * k + 1))
         for k in range(6)]
        + [Line(Fraction(-k), Fraction(k * k + 3)) for k in range(1, 4)])
    _assert_ratio_and_fraction_keys_agree(9, _gap_key(huge))


def test_ranked_chains_break_float_ties_of_unreduced_ratios(rng):
    # 1 + h/2**80 all round to the float 1.0; written over 2**80 times a
    # random factor, equal keys come in different terms
    n = 14
    pairs = [(i, j) for j in range(1, n + 1) for i in range(1, j)]
    keys = {p: Ratio(int(f) * (2**80 + int(h)), int(f) * 2**80)
            for p, h, f in zip(pairs, rng.integers(-4, 5, len(pairs)),
                               rng.integers(1, 6, len(pairs)))}
    assert {r.numerator / r.denominator for r in keys.values()} == {1.0}
    values = {Fraction(*r) for r in keys.values()}
    assert 1 < len(values) < len(set(keys.values()))
    _assert_ratio_and_fraction_keys_agree(n, lambda i, j: keys[i, j])


def test_ranked_chains_on_vertices_with_gaps_between_them(rng):
    # the lines a subset keeps, whose ids in the parent set have gaps
    # between them, on their own ids 1..m, with many tied gaps
    for n in (9, 17, 25):
        ls = tied_gap_lines(rng, n)
        _assert_gap_chains_match(ls.subset([int(v) + 1 for v in rng.choice(
            n, n // 2 + 1, replace=False)]))


def test_extraction_with_gaps_beyond_float_range():
    # gaps between slopes near 10**200 are near -10**400, which float()
    # cannot hold: they must still rank, below every finite gap
    ls = verify_general_position(
        [Line(Fraction(10**200 + k * k), Fraction(7 * k + 1))
         for k in range(6)]
        + [Line(Fraction(-k), Fraction(k * k + 3)) for k in range(1, 4)])
    with pytest.raises(OverflowError):
        float(angle_gap(ls.line(4), ls.line(5)))
    assert extract_monotone_gaps(ls) == MonotoneGapChain(
        (4, 5, 6, 7, 8, 9), Direction.NON_DECREASING)
    assert extract_doubling(ls) == DoublingChain((4, 5, 7), Variant.LOWER)
    kind, sub = longest_cap_cup(ls)
    assert kind == lineset.CapCup.CAP
    assert sub.parent_ids == (4, 5, 6, 7, 8, 9)
    _assert_gap_chains_match(ls)


def _lines_beyond_int64(rng, n):
    """n lines whose slope numerators and denominators lie in
    [2**40, 2**60), of both signs, so that the products in a pair's gap
    or crossing key overflow int64."""
    while True:
        slopes = [Fraction(int(s) * int(p), int(q)) for s, p, q in zip(
            rng.choice((-1, 1), n), *rng.integers(2**40, 2**60, (2, n)))]
        if all(2**40 <= abs(s.numerator) < 2**60
               and 2**40 <= s.denominator < 2**60 for s in slopes):
            try:
                return verify_general_position(
                    [Line(s, Fraction(int(b), 7))
                     for s, b in zip(slopes, rng.integers(-5000, 5000, n))])
            except lineset.LineSetError:
                continue


def test_extraction_keys_are_exact_beyond_int64(rng, monkeypatch):
    # each extractor ranks its pairs with one key call on the columns of
    # all pairs, and the keys are exact where int64 would wrap around
    ranked, key_calls = ranked_chains, []

    def counting(n, key, lower, upper):
        calls = []

        def counted(lo, hi):
            calls.append(len(lo))
            return key(lo, hi)
        tables = ranked(n, counted, lower, upper)
        key_calls.append(calls)
        return tables

    monkeypatch.setattr(lineset, "ranked_chains", counting)
    monkeypatch.setattr(ramsey, "ranked_chains", counting)
    for n in (5, 9, 16, 24):
        ls = _lines_beyond_int64(rng, n)
        dirs = columns(at_infinity(1, l.slope) for l in ls)
        assert max(abs(g) for g in gap_ratio(dirs[:, :-1], dirs[:, 1:])
                   .numerator) >= 2**80
        tc = color_by_gaps(ls)
        assert ranked(n, lambda lo, hi: gap_ratio(
            dirs[:, lo - 1], dirs[:, hi - 1]), Color.RED, Color.BLUE) == \
            labelled_chains(n, tc.of)
        hs = columns(l.homogeneous for l in ls)
        _, label = _cap_cup_labelling(ls)
        assert ranked(n, lambda lo, hi: lineset._abscissa(
            hs[:, lo - 1], hs[:, hi - 1]), -1, +1) == labelled_chains(n, label)
        key_calls.clear()
        path = longest_mono_path(tc)
        assert extract_monotone_gaps(ls) == MonotoneGapChain(
            path.vertices, Direction.NON_INCREASING
            if path.color == Color.RED else Direction.NON_DECREASING)
        longest_cap_cup(ls)
        try:
            extract_doubling(ls)
        except ChainTooShort:
            pass
        # monotone and cap/cup each call the key once on all pairs, and
        # so does doubling on its subset unless that is too small
        pairs = n * (n - 1) // 2
        assert key_calls[:2] == [[pairs], [pairs]]
        assert all(len(calls) == 1 for calls in key_calls)


def test_ranked_chains_match_labelled_chains_on_cups_and_caps(rng):
    for n in range(3, 21):
        cup = random_cup(rng, n)
        cap = mirrored(cup)
        for ls in (cup, cap):
            _assert_gap_chains_match(ls)
            _assert_cap_cup_chains_match(ls)


def test_extraction_builds_no_triple_colouring(rng, monkeypatch):
    # the extraction path ranks the pairs; it never colours the triples
    def refuse(*args):
        raise AssertionError("a triple colouring was built")

    monkeypatch.setattr(ramsey, "color_by_gaps", refuse)
    monkeypatch.setattr(ramsey, "TripleColoring", refuse)
    monkeypatch.setattr(ramsey, "labelled_chains", refuse)
    ls = random_lines(rng, 24)
    assert check_monotone(ls, extract_monotone_gaps(ls))
    spread = angle_lineset(DOUBLING_DEGREES)
    assert check_doubling(spread, extract_doubling(spread))
    kind, sub = longest_cap_cup(ls)
    assert lineset.classify_cap_cup(sub) == kind


def _lines(*rows):
    return verify_general_position([Line(scalar(s), scalar(b))
                                    for s, b in rows])


@pytest.mark.parametrize("call, error, message", [
    (lambda: longest_mono_path(TripleColoring(2, lambda i, j, k: Color.RED)),
     ValueError, "need n >= 3"),
    (lambda: color_by_gaps(_lines((0, 0), (1, 0))), lineset.TooFew,
     "need at least 3 lines"),
    # the three negative slopes are the majority class; their monotone
    # chain has 3 lines, of which the doubling subsequence keeps 2
    (lambda: extract_doubling(_lines((-3, 1), (-2, 5), (-1, 2), (1, 0),
                                     (2, 7))),
     ChainTooShort, "doubling subsequence has 2 lines"),
])
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message

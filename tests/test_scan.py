"""The campaign's packed scan: its chunk plan and tables, its diagonal
conjugation group, its per-pattern verdicts against the row-list reference
and its bookkeeping alarm."""

import collections
import itertools
import random

import pytest

from weaktri import scan, triang
from weaktri.errors import PreconditionError, TheoremViolationError
from weaktri.gf import FieldCtx
from weaktri.scan import (
    _CHUNK_TABLE_LIMIT,
    Quotient,
    _chunk_tables,
    _chunk_widths,
    _scan_pattern,
    _Torus,
    check_table_sizes,
)

from oracles import scan_pattern_by_rows

GF2 = (2,)
GF9 = (3, 2, (1, 0, 1))


def packed(digits, q):
    return sum(d * q**c for c, d in enumerate(digits))


def trivial_group(field, m):
    return _Torus(field, ((1,) * m,))


def assert_scans_agree(field, m, good, ks, torus=None):
    """The packed scan through the group ``torus`` (the trivial group by
    default) and the row-list reference return the same candidate count and
    the same hit rows, in any order, on every pattern with k >= 1 rows, k
    in ``ks``; returns the hit and rejection totals."""
    chunks = _chunk_tables(field, m)
    torus = torus or trivial_group(field, m)
    hits = rejected = 0
    for k in ks:
        for pattern in itertools.combinations(range(m), k):
            decided, rows = _scan_pattern(chunks, good, torus, pattern, {})
            expected, reference = scan_pattern_by_rows(field, m, good, pattern)
            assert (decided, sorted(rows)) == (expected, sorted(reference)), pattern
            hits += len(rows)
            rejected += decided - len(rows)
    return hits, rejected


def synthetic_goodness(q, m, seed, density, factors=None):
    """A seeded table over prime q that, like a real goodness table, is
    constant on each class's nonzero multiples and on the orbits of the
    coordinate scalings ``factors`` (one factor list per group element)."""
    rng = random.Random(seed)
    factors = factors or [(1,) * m]
    good = bytearray(q**m)
    for index in range(1, q**m):
        digits = [index // q**c % q for c in range(m)]
        # the first class of its orbit under scalars and the group decides
        first = min(
            packed([s * f * d % q for f, d in zip(scales, digits)], q)
            for scales in factors
            for s in range(1, q)
        )
        good[index] = rng.random() < density if first == index else good[first]
    return good


# -- chunk plan and tables --------------------------------------------------------


# m = 8 is the quotient by I of 3x3 matrices, m = 3 that of 2x2 ones
@pytest.mark.parametrize(
    "q, m, widths", [(3, 8, (4, 4)), (5, 8, (4, 4)), (9, 8, (3, 3, 2)), (9, 3, (2, 1))]
)
def test_chunk_widths_of_the_identity_campaigns(q, m, widths):
    assert _chunk_widths(q, m) == widths


def test_chunk_tables_stay_within_both_bounds():
    for q in (2, 3, 4, 5, 7, 9, 11, 25, 101):
        for m in range(1, 13):
            widths = _chunk_widths(q, m)
            assert sum(widths) == m and max(widths) - min(widths) <= 1
            # at most 2^20 entries, and no more than the goodness table, though
            # a two-digit chunk is always allowed under 2^20
            cap = min(_CHUNK_TABLE_LIMIT, max(q**m, q**4))
            assert all(q ** (2 * h) <= cap for h in widths), (q, m)
            # one chunk fewer would break a bound
            if len(widths) > 1:
                assert q ** (2 * -(-m // (len(widths) - 1))) > cap, (q, m)


def test_table_limits_refuse_only_past_their_bounds():
    # one-digit chunks over GF(1021) hold 1,042,441 entries, under 2^20;
    # over GF(1031), 1,062,961
    check_table_sizes(1021, 1)
    with pytest.raises(PreconditionError, match="chunk tables of 1062961 entries"):
        check_table_sizes(1031, 1)
    # a goodness table may hold 2^28 bytes
    check_table_sizes(2, 28)
    with pytest.raises(PreconditionError, match="goodness table of 536870912 bytes"):
        check_table_sizes(2, 29)


@pytest.mark.parametrize(
    "field_args, m, entries",
    [((3,), 8, [6561, 6561]), ((5,), 8, [390_625, 390_625]), (GF9, 3, [6561, 81])],
)
def test_built_table_sizes(field_args, m, entries):
    field = FieldCtx(*field_args)
    chunks = _chunk_tables(field, m)
    for j, size in enumerate(entries):
        side = field.q ** chunks.widths[j]
        assert len(chunks.add[j]) * len(chunks.add[j][0]) == size == side * side
        assert len(chunks.test[j]) * len(chunks.test[j][0]) == size
        assert (len(chunks.mul[j]), len(chunks.mul[j][0])) == (field.q, side)
    assert len(chunks.add) == len(entries)


@pytest.mark.parametrize("field_args, m", [((3,), 8), ((5,), 4), (GF9, 3), (GF9, 5), (GF2, 5)])
def test_every_chunk_table_entry(field_args, m):
    field = FieldCtx(*field_args)
    q = field.q
    chunks = _chunk_tables(field, m)
    for j, (scale, width) in enumerate(zip(chunks.scales, chunks.widths)):
        values = [[a // q**c % q for c in range(width)] for a in range(q**width)]
        for a, da in enumerate(values):
            for b, db in enumerate(values):
                total = packed([field.add(x, y) for x, y in zip(da, db)], q)
                assert (chunks.add[j][a][b], chunks.test[j][a][b]) == (total, total * scale)
            for c in range(q):
                assert chunks.mul[j][c][a] == packed([field.mul(c, x) for x in da], q)
    assert chunks.scales[0] == 1 and chunks.sizes == tuple(q**w for w in chunks.widths)
    # the batch of every index at once, scaled by each nonzero c
    indices = list(range(q**m))
    digits = [[index // q**c % q for c in range(m)] for index in indices]
    assert [list(chunks.coordinates(index)) for index in indices] == digits
    scaled = list(chunks.multiples(indices))
    assert len(scaled) == q - 1
    for c, multiples in enumerate(scaled, 1):
        assert multiples == [packed([field.mul(c, d) for d in ds], q) for ds in digits], c


# -- the diagonal-conjugation group ---------------------------------------------------


@pytest.mark.parametrize(
    "field_args, n, constraints, order",
    [
        ((3,), 3, ["I"], 4),
        ((5,), 3, ["I"], 16),
        (GF2, 3, ["I"], 1),
        ((3,), 2, ["I"], 2),
        (GF9, 2, ["I"], 8),
        ((3,), 2, [], 2),
    ],
)
def test_group_order(field_args, n, constraints, order):
    # the torus modulo scalars, (q-1)^(n-1), with or without I
    field = FieldCtx(*field_args)
    torus = Quotient(field, n, identity=constraints == ["I"]).torus
    assert torus.order == len(set(torus.factors)) == order
    assert torus.factors[0] == (1,) * (n * n - len(constraints))


@pytest.mark.parametrize("field_args, n", [((3,), 3), ((5,), 2), (GF9, 2)])
def test_group_keeps_goodness(field_args, n):
    field = FieldCtx(*field_args)
    quotient = Quotient(field, n, identity=True)
    good, q, m = quotient.goodness_table(), field.q, quotient.dim
    assert 0 < sum(good) < q**m
    for index in range(q**m):
        digits = [index // q**c % q for c in range(m)]
        for scales in quotient.torus.factors:
            image = packed([field.mul(f, d) for f, d in zip(scales, digits)], q)
            assert good[image] == good[index]


# -- the span kernels ----------------------------------------------------------------


class RecordingTable:
    """A goodness table that records the index of each read, in order."""

    def __init__(self, good):
        self.good = good
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return self.good[index]


@pytest.mark.parametrize(
    "field_args, m, chunk_count", [((5,), 2, 1), ((3,), 6, 2), (GF9, 3, 2), ((3,), 5, 3)]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_grow_and_filter_against_coordinates(field_args, m, chunk_count, seed):
    # the kernels on random vectors, checked against the field's own add and
    # mul on coordinates; the span need not be a span for either kernel
    field = FieldCtx(*field_args)
    q = field.q
    chunks = _chunk_tables(field, m)
    assert len(chunks.widths) == chunk_count
    rng = random.Random(seed)

    def split(digits):
        index = packed(digits, q)
        return tuple(index // s % z for s, z in zip(chunks.scales, chunks.sizes))

    def columns(vectors):
        return [list(column) for column in zip(*map(split, vectors))] or [[]] * chunk_count

    def plus(u, v):
        return [field.add(a, b) for a, b in zip(u, v)]

    def vector():
        return [rng.randrange(q) for _ in range(m)]

    span = [vector() for _ in range(rng.randrange(1, 9))]
    # _grow: c * row, then c * row + w for each w of the span, for c = 1 .. q-1
    row = vector()
    expected = []
    for c in range(1, q):
        scaled = [field.mul(c, d) for d in row]
        expected += [scaled] + [plus(scaled, w) for w in span]
    new = scan._grow(chunks, split(row), columns(span))
    assert len(new) == chunk_count
    assert new == columns(expected)
    assert scan._grow(chunks, split(row), [[]] * chunk_count) == columns(expected[:: len(span) + 1])
    # _filter: the rows with row + w good for every w, read row by row and
    # element by element, each row up to its first bad sum
    good = bytearray(rng.random() < 0.85 for _ in range(q**m))
    vectors = [vector() for _ in range(40)]
    rows = [
        (packed(v, q), split(v), tuple(t[a] for t, a in zip(chunks.test, split(v))))
        for v in vectors
    ]
    reads, kept = [], []
    for v, row in zip(vectors, rows):
        for w in span:
            reads.append(packed(plus(v, w), q))
            if not good[reads[-1]]:
                break
        else:
            kept.append(row)
    table = RecordingTable(good)
    assert scan._filter(table, rows, columns(span)) == kept
    assert table.reads == reads
    assert 0 < len(kept) < len(rows)


@pytest.mark.parametrize("q, m, chunk_count", [(5, 2, 1), (3, 8, 2), (3, 5, 3)])
def test_level_against_coordinates(q, m, chunk_count):
    # every pivot with all, none, the even and the odd columns above it
    # free: the rows come in the order of their free digits, the last free
    # column fastest, and a row is live when its own class is good
    chunks = _chunk_tables(FieldCtx(q), m)
    assert len(chunks.widths) == chunk_count
    good = synthetic_goodness(q, m, 0, 0.7)
    for pivot in range(m):
        above = range(pivot + 1, m)
        for frees in (tuple(above), (), above[::2], above[1::2]):
            live, dead = [], 0
            for free_digits in itertools.product(range(q), repeat=len(frees)):
                digits = [0] * m
                digits[pivot] = 1
                for c, d in zip(frees, free_digits):
                    digits[c] = d
                index = packed(digits, q)
                split = tuple(index // s % z for s, z in zip(chunks.scales, chunks.sizes))
                if good[index]:
                    live.append((index, split, tuple(map(list.__getitem__, chunks.test, split))))
                else:
                    dead += 1
            assert scan._level(chunks, good, pivot, tuple(frees)) == (live, dead), (pivot, frees)


# -- the packed scan against the reference ------------------------------------------


@pytest.mark.parametrize("field_args", [GF2, (3,), (5,), GF9])
def test_n2_identity_campaign_patterns_match_the_reference(field_args):
    field = FieldCtx(*field_args)
    quotient = Quotient(field, 2, identity=True)
    good = quotient.goodness_table()
    hits, rejected = assert_scans_agree(field, quotient.dim, good, range(1, 4), quotient.torus)
    assert hits and rejected


def test_n3_identity_campaign_patterns_match_the_reference(gf3):
    quotient = Quotient(gf3, 3, identity=True)
    good = quotient.goodness_table()
    assert quotient.torus.order == 4
    assert assert_scans_agree(gf3, 8, good, [5], quotient.torus) == (52, 25_095_280 - 52)


@pytest.mark.parametrize(
    "q, m, chunk_count, density",
    # at density 0.6 dead rows dominate and filters empty whole levels
    [(5, 2, 1, 0.8), (3, 6, 2, 0.9), (3, 6, 2, 0.6), (3, 5, 3, 0.85), (5, 5, 3, 0.97)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_synthetic_tables_match_the_reference(q, m, chunk_count, density, seed):
    assert len(_chunk_widths(q, m)) == chunk_count
    good = synthetic_goodness(q, m, seed, density)
    hits, rejected = assert_scans_agree(FieldCtx(q), m, good, range(1, m + 1))
    assert hits > 1 and rejected > 0


def record_largest_group(monkeypatch):
    """Patch the scan to record the largest group a call with a row already
    chosen receives; returns it as a one-item list."""
    largest = [0]
    descend = scan._descend

    def recording(chunks, good, torus, levels, domains, span, group, chosen):
        if len(domains) < len(levels):
            largest[0] = max(largest[0], len(group))
        return descend(chunks, good, torus, levels, domains, span, group, chosen)

    monkeypatch.setattr(scan, "_descend", recording)
    return largest


@pytest.mark.parametrize(
    "q, n, identity",
    # m = 4 with a torus of order 4, and m = 3 with one of order 6
    [(5, 2, False), (7, 2, True)],
)
@pytest.mark.parametrize("density", [0.6, 0.8])
@pytest.mark.parametrize("seed", [0, 1])
def test_synthetic_tables_match_the_reference_through_the_torus(
    monkeypatch, q, n, identity, density, seed
):
    field = FieldCtx(q)
    quotient = Quotient(field, n, identity)
    torus, m = quotient.torus, quotient.dim
    assert len(quotient.chunks.widths) == 2
    good = synthetic_goodness(q, m, seed, density, factors=torus.factors)
    largest = record_largest_group(monkeypatch)
    hits, rejected = assert_scans_agree(field, m, good, range(1, m + 1), torus)
    assert hits > 1 and rejected > 0
    assert largest[0] > 1


# groups of order 2 and 4 that change the signs of coordinates of F_5^2,
# F_3^5 and F_5^5: one chunk, then three
SIGNS_5_2 = ((1, 1), (1, 4))
SIGNS_3_5 = ((1, 1, 1, 1, 1), (1, 2, 1, 2, 1), (1, 1, 2, 2, 1), (1, 2, 2, 1, 1))
SIGNS_5_5 = ((1, 1, 1, 1, 1), (1, 4, 1, 4, 1), (1, 1, 4, 4, 1), (1, 4, 4, 1, 1))


@pytest.mark.parametrize(
    "q, factors, chunk_count, densities",
    # in F^2 only the whole space has two rows, a hit only when every class
    # is good: the all-good table sends the group below the bottom level,
    # the other one rejects
    [(5, SIGNS_5_2, 1, (0.6, 1.0)), (3, SIGNS_3_5, 3, (0.85,)), (5, SIGNS_5_5, 3, (0.97,))],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_synthetic_tables_match_the_reference_through_a_sign_group(
    monkeypatch, q, factors, chunk_count, densities, seed
):
    # one and three chunks take the per-element loop of ``_filter``
    field, m = FieldCtx(q), len(factors[0])
    assert len(_chunk_widths(q, m)) == chunk_count
    torus = _Torus(field, factors)
    largest = record_largest_group(monkeypatch)
    hits = rejected = 0
    for density in densities:
        good = synthetic_goodness(q, m, seed, density, factors)
        found = assert_scans_agree(field, m, good, range(1, m + 1), torus)
        hits, rejected = hits + found[0], rejected + found[1]
    assert hits > 1 and rejected > 0
    assert largest[0] > 1


def count_cuts(monkeypatch):
    """Patch the scan to count its ``_descend`` calls by depth, the number
    of rows already chosen, and the rows it rejects with their subtree at
    their root; returns (calls, cuts), a Counter by depth and a one-item
    list."""
    calls, cuts = collections.Counter(), [0]
    descend, grow = scan._descend, scan._grow

    def counting(chunks, good, torus, levels, domains, *rest):
        calls[len(levels) - len(domains)] += 1
        # a call with a row already chosen is made by a row that was not cut
        cuts[0] -= len(domains) < len(levels)
        return descend(chunks, good, torus, levels, domains, *rest)

    def growing(*args):
        cuts[0] += 1  # each scanned row with a level left to fill grows the span once
        return grow(*args)

    monkeypatch.setattr(scan, "_descend", counting)
    monkeypatch.setattr(scan, "_grow", growing)
    return calls, cuts


# a group of order 4 that changes the signs of coordinates of F_3^6
SIGNS = ((1, 1, 1, 1, 1, 1), (1, 2, 1, 2, 1, 2), (1, 1, 2, 2, 1, 1), (1, 2, 2, 1, 1, 2))


@pytest.mark.parametrize(
    "factors, density",
    # through the signs, density 0.2 leaves no hit of two rows
    [(None, 0.2), (None, 0.3), (None, 0.4), (SIGNS, 0.3), (SIGNS, 0.4)],
)
def test_sparse_tables_cut_subtrees_at_their_root(monkeypatch, factors, density):
    # few good rows: a row that empties some lower level is rejected with
    # its whole subtree before any level below it is entered
    field = FieldCtx(3)
    torus = factors and _Torus(field, factors)
    _, cuts = count_cuts(monkeypatch)
    hits = 0
    for seed in (0, 1):
        good = synthetic_goodness(3, 6, seed, density, factors)
        # hits of two rows or more, which the filters of every level let through
        hits += assert_scans_agree(field, 6, good, range(2, 7), torus)[0]
    assert hits and cuts[0] > 0


def test_sparse_table_scan_calls_per_level(monkeypatch):
    # one call per pattern at depth 0 and one per scanned row that every
    # other unfilled level can complete.  Filling the levels bottom row
    # first called {5: 1, 4: 6, 3: 15, 2: 22, 1: 32, 0: 74} by the number of
    # levels left after the call's own, and cut 106 rows; filtering only the
    # next level calls more
    calls, cuts = count_cuts(monkeypatch)
    good = synthetic_goodness(3, 6, 0, 0.4)
    assert assert_scans_agree(FieldCtx(3), 6, good, range(1, 7))[0] == 384
    assert calls == {0: 63, 1: 77}
    assert cuts == [35]


def record_fills(monkeypatch):
    """Patch the scan to record, for each ``_descend`` call that makes
    another, the sizes of its domains by level and the level it fills: the
    one its callee no longer has unfilled.  Returns the list of
    (sizes, level) pairs."""
    fills, callers = [], []
    descend = scan._descend

    def recording(chunks, good, torus, levels, domains, *rest):
        sizes = {level: len(rows) for level, rows in domains}
        if callers:
            (filled,) = set(callers[-1]) - set(sizes)
            fills.append((callers[-1], filled))
        callers.append(sizes)
        try:
            return descend(chunks, good, torus, levels, domains, *rest)
        finally:
            callers.pop()

    monkeypatch.setattr(scan, "_descend", recording)
    return fills


@pytest.mark.parametrize("factors", [None, SIGNS])
@pytest.mark.parametrize("seed", [0, 1])
def test_fail_first_leaves_the_static_order(monkeypatch, factors, seed):
    # each node fills the unfilled level with the fewest rows, the highest
    # one on a tie, and some node fills another than the highest (the level
    # a bottom-row-first scan would fill); any fill order decides the same
    # candidates and hits as the row-list reference, which fills bottom up
    field = FieldCtx(3)
    torus = factors and _Torus(field, factors)
    fills = record_fills(monkeypatch)
    good = synthetic_goodness(3, 6, seed, 0.85, factors)
    hits, rejected = assert_scans_agree(field, 6, good, range(1, 7), torus)
    assert hits > 1 and rejected > 0
    for sizes, filled in fills:
        fewest = min(sizes.values())
        assert filled == max(level for level, size in sizes.items() if size == fewest)
    assert any(filled != max(sizes) for sizes, filled in fills)


def test_bookkeeping_drift_is_an_alarm(gf3, monkeypatch):
    # a level that reports one dead row it does not have: the rejected and
    # accepted candidates of a pattern no longer add up to its size
    quotient = Quotient(gf3, 3, identity=True)
    good = quotient.goodness_table()
    level = scan._level

    def one_more_dead(chunks, good, pivot, frees):
        live, dead = level(chunks, good, pivot, frees)
        return live, dead + 1

    monkeypatch.setattr(scan, "_level", one_more_dead)
    with pytest.raises(TheoremViolationError, match=r"drift on pattern \(0, 1, 2, 3, 4\): "):
        quotient.scan(good, 5)


def test_plain_list_table_is_accepted(gf3):
    good = list(map(bool, synthetic_goodness(3, 4, 0, 0.9)))
    assert assert_scans_agree(gf3, 4, good, range(1, 5))[0] > 1


class CountingTable:
    """A goodness table that counts its reads."""

    def __init__(self, good):
        self.good = good
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.good[index]


def test_n3_identity_scan_goodness_reads(gf3):
    # each scanned row tests the other unfilled levels' survivors only
    # against the span elements it adds, in level order, and stops at the
    # first level it empties.  Filling the level with the fewest rows next
    # reads 25,693; filling bottom row first read 36,606, filtering every
    # lower level 50,787, filtering the next level first 40,014, and
    # filtering only the next level (forward checking) 54,597.  A row that
    # is not the least of its stabilizer orbit is skipped and filters
    # nothing.  Each level reads the rows' own classes once per scan, not
    # once per pattern that has it
    quotient = Quotient(gf3, 3, identity=True)
    good = CountingTable(quotient.goodness_table())
    _, spaces = quotient.scan(good, 5)
    assert len(spaces) == 52
    assert good.reads == 25_693


def test_n3_identity_scan_builds_each_level_once(gf3, monkeypatch):
    # the 56 patterns have 5 levels each, 280 in all, but only 125 distinct
    # (pivot, free columns)
    quotient = Quotient(gf3, 3, identity=True)
    good = quotient.goodness_table()
    built = []
    level = scan._level

    def recording(chunks, good, pivot, frees):
        built.append((pivot, frees))
        return level(chunks, good, pivot, frees)

    monkeypatch.setattr(scan, "_level", recording)
    _, spaces = quotient.scan(good, 5)
    assert len(spaces) == 52
    assert len(built) == len(set(built)) == 125


def test_n3_identity_scan_computes_each_image_once(gf3, monkeypatch):
    # 129 rows meet the torus, each mapped by its 4 elements once (160 rows,
    # 640 images, when the levels were filled bottom row first); mapping a
    # row each time an orbit test or a hit needs it computed 7,456 images
    quotient = Quotient(gf3, 3, identity=True)
    good = quotient.goodness_table()
    calls = collections.Counter()
    image = scan._Torus.image

    def counting(torus, g, index, pivot):
        calls[g, index] += 1
        return image(torus, g, index, pivot)

    monkeypatch.setattr(scan._Torus, "image", counting)
    _, spaces = quotient.scan(good, 5)
    assert len(spaces) == 52
    assert set(calls.values()) == {1}
    assert len(calls) == 516 == 4 * len({index for _, index in calls})


def test_n3_identity_goodness_table_decides_each_char_poly_once(gf3, monkeypatch):
    # the 3,280 decided classes meet the 27 monic cubics over GF(3)
    seen = []
    splits_over = triang.splits_over

    def recording(f):
        seen.append(f.coeffs)
        return splits_over(f)

    # the table decides its classes through the one class walk
    monkeypatch.setattr(triang, "splits_over", recording)
    good = Quotient(gf3, 3, identity=True).goodness_table()
    assert len(good) == 3**8
    assert len(seen) == len(set(seen)) == 27


def test_n3_identity_scan_calls_per_level(gf3, monkeypatch):
    # calls by depth, the number of rows already chosen: one per pattern at
    # depth 0, and one per scanned row that every other unfilled level can
    # complete; a row that empties another level's domain is rejected with
    # its subtree at once.  Every call scans one row per orbit of the
    # stabilizer of the rows already chosen.  Filling the levels bottom row
    # first called, by level, {4: 56, 3: 75, 2: 84, 1: 44, 0: 22}, and
    # filtering only the next level (forward checking) {4: 56, 3: 93,
    # 2: 262, 1: 1,405, 0: 425}
    quotient = Quotient(gf3, 3, identity=True)
    good = quotient.goodness_table()
    calls = collections.Counter()
    descend = scan._descend

    def counting(chunks, good, torus, levels, domains, *rest):
        calls[len(levels) - len(domains)] += 1
        return descend(chunks, good, torus, levels, domains, *rest)

    monkeypatch.setattr(scan, "_descend", counting)
    _, spaces = quotient.scan(good, 5)
    assert len(spaces) == 52
    assert calls == {0: 56, 1: 82, 2: 64, 3: 39, 4: 22}

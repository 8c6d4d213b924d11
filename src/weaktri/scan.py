"""The quotient a campaign scans, its packed class format, its goodness table
and its pruned scan.

A campaign's candidates are the subspaces of M_n(F), vectorized as F^(n^2),
that contain I, or all of them.  ``Quotient`` reduces modulo F.I in the
first case: quotient coordinate c is the matrix entry at column
``section_cols[c]``, every column but the first (entry (0, 0)), or every
column when nothing is reduced.  A quotient space lifts back to a candidate
through ``space_from``: its rows are placed on the section columns and
spanned with I.  This module is the one owner of that format.

Each quotient vector of F^k is its packed class index (digit c is coordinate
c, little-endian base q), cut into a few balanced base-q chunks.  Chunk add
and scalar-mul tables, built from ``field.add`` and ``field.mul`` once per
campaign, add two chunks or scale one, so testing a combination of rows
costs one lookup per chunk and one in the goodness table.  The scan keeps
the span of the rows it has chosen as columns, one list of chunk values per
chunk, and grows each column by one ``add`` lookup per element.  With two
chunks, as in every n=3 campaign through I over a field of at most five
elements, a goodness read is one line, good[t0[a] + t1[b]], with no call per
read; other chunk counts sum their lookups per element (see ``_filter``).
Coordinates come back only when a hit's rows are unpacked.

The goodness table holds one byte per class: the class is bad when the
characteristic polynomial of its lift, which adding multiples of I only
shifts, does not split.  The package's one class walk,
``triang.nonsplit_classes`` over the quotient's unit vectors, decides each
class of nonzero multiples once, by its element whose top nonzero digit is
1, and the table marks every nonzero multiple of each class it yields bad.

The scan enumerates RREF bases one row at a time, a level being the rows
of one pivot, and returns the number of candidates it decided and its hit
spaces, in no set order.  Any candidate whose partial span hits a bad class
is rejected together with its entire subtree (all such candidates contain
that same bad element), with skipped counts tracked exactly.  The scan
looks ahead to every level (full lookahead, after Haralick and Elliott,
Artificial Intelligence 14 (1980)): each node holds, for every level still
to fill, the rows that pass against its span, and each row it scans
filters those domains only against the span elements that row adds.  A row
that empties any of them is rejected with its subtree at once.  Each node
fills the level with the fewest rows left (fail-first, the same paper's
other half), which decides the same candidates as any fixed order.  A
level, the rows of one pivot and one set of free columns, is built digit by
digit from the goodness table once per scan and shared by every pivot
pattern that has it.

Conjugation by an invertible diagonal matrix D = diag(d_0 .. d_{n-1}) scales
matrix entry (i, j) by d_i/d_j, keeps every characteristic polynomial and
fixes I.  So the torus modulo scalars, (q-1)^(n-1) elements with d_0 = 1,
acts on the quotient by scaling each coordinate; it keeps pivot patterns
once each row is divided by its pivot entry, and it keeps goodness.  Each
node of the scan decides one row per orbit of the stabilizer of the rows
chosen before it (the whole group at the root), the least one, weights its
rejected subtree by the orbit size and maps its hits onto the other rows of
the orbit: the stabilizer fixes the span of the chosen rows, so it maps
each level's domain onto itself.  A row's images under the whole group are
computed on its first use and kept with the group, which lives as long as
its ``Quotient``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import PreconditionError, TheoremViolationError
from .linalg import Mat, span_rows
from .spaces import MatSpace
from .triang import nonsplit_classes

# the most entries a chunk table may hold, and the most bytes a goodness
# table may: ``check_table_sizes`` refuses a quotient that needs more
_CHUNK_TABLE_LIMIT = 1 << 20
_GOODNESS_TABLE_LIMIT = 1 << 28
# the most non-split classes the goodness table marks at once: their
# multiples are held as lists of ints until they are marked
_MARK_BATCH = 1 << 12


def check_table_sizes(q, m):
    """Refuse, before any is built, the tables of an m-dimensional quotient
    over GF(q) that would pass their limits: its chunk tables hold q^2
    entries at least (one-digit chunks), and its goodness table q^m bytes.
    The campaign budget counts candidates and classes, which a large field
    keeps few while these tables grow past memory."""
    if q * q > _CHUNK_TABLE_LIMIT:
        raise PreconditionError(
            f"chunk tables of {q * q} entries over GF({q}) exceed the limit {_CHUNK_TABLE_LIMIT}"
        )
    if q**m > _GOODNESS_TABLE_LIMIT:
        raise PreconditionError(
            f"a goodness table of {q**m} bytes exceeds the limit {_GOODNESS_TABLE_LIMIT}"
        )


class Quotient:
    """The vectorized n-by-n matrices modulo F.I when ``identity`` holds,
    else all of them, with the chunk tables and the diagonal torus of its
    scans.  A campaign builds one only to scan at least one row, so its
    dimension is at least 1; ``check_table_sizes`` refuses it before any
    table is built."""

    def __init__(self, field, n, identity):
        self.field = field
        self.n = n
        self.rows = [Mat.identity(field, n).entries] if identity else []
        self.section_cols = list(range(len(self.rows), n * n))
        self.dim = len(self.section_cols)
        check_table_sizes(field.q, self.dim)
        self.chunks = _chunk_tables(field, self.dim)
        F, factors = field, []
        for d in itertools.product(range(1, F.q), repeat=n - 1):
            d = (1,) + d
            factors.append(tuple(F.mul(d[e // n], F.inv(d[e % n])) for e in self.section_cols))
        self.torus = _Torus(F, tuple(factors))

    def space_from(self, quotient_rows) -> MatSpace:
        """The candidate space with these quotient rows, spanned with I when
        the quotient reduces it; its dimension drops by one per dependent
        row."""
        F, n = self.field, self.n
        lifted = list(self.rows)
        for qrow in quotient_rows:
            full = [0] * (n * n)
            for c, v in zip(self.section_cols, qrow):
                full[c] = v
            lifted.append(full)
        # span_rows reduces the rows already: wrap, do not coerce
        return MatSpace(F, n, (Mat._wrap(F, n, r) for r in span_rows(lifted, F)))

    def goodness_table(self):
        """good[packed class] is 1 when the characteristic polynomial of
        the class's lift (its coordinates on the section columns, 0 on the
        rest) splits, else 0; a bytearray, one byte per class.  Adding a
        multiple of I shifts the polynomial, so one lift decides the class.

        ``triang.nonsplit_classes`` walks the quotient's unit vectors, whose
        packed index is the class index, and decides each class of nonzero
        multiples once; every nonzero multiple of a class it yields is
        marked bad, ``_MARK_BATCH`` classes at a time through the chunk
        ``mul`` tables.  Class 0 is 0 or F.I, and (t - lambda)^n splits, so
        it is good.
        """
        F, n = self.field, self.n
        good = bytearray(b"\x01") * F.q**self.dim
        units = [Mat.unit(F, n, c // n, c % n).entries for c in self.section_cols]
        classes = (index for index, _ in nonsplit_classes(F, n, units))
        while batch := list(itertools.islice(classes, _MARK_BATCH)):
            for multiples in self.chunks.multiples(batch):
                for multiple in multiples:
                    good[multiple] = 0
        return good

    def scan(self, good, k):
        """(candidates_decided, hit_spaces) over every k-dimensional
        subspace of the quotient, k >= 1, scanned against the goodness
        table ``good``; the hits are lifted by ``space_from``, in no set
        order.

        ``good`` must be constant on the orbits of ``self.torus``, as a
        goodness table is.  Every node scans one row per orbit of the
        stabilizer of the rows chosen before it, which fixes their span and
        so maps each level's domain onto itself.

        Each level, the live rows of one pivot and one set of free columns,
        is built from ``good`` once per call and shared by every pivot
        pattern that has it, so ``good`` must not change during one call."""
        built = {}  # (pivot, free columns) -> (live, dead), for this call
        total, spaces = 0, []
        for pattern in itertools.combinations(range(self.dim), k):
            decided, rows = _scan_pattern(self.chunks, good, self.torus, pattern, built)
            total += decided
            spaces += map(self.space_from, rows)
        return total, spaces


def _chunk_widths(q, m):
    """Balanced widths, in base-q digits and low chunk first, that split the
    packed index of a vector of F^m, m >= 1, into chunks.

    The fewest chunks whose add tables (q^(2h) entries for width h) hold at
    most 2^20 entries and no more than the q^m-entry goodness table, except
    that a two-digit chunk (q^4 entries) is allowed under 2^20 even where the
    goodness table is smaller.  One-digit chunks are the last resort;
    ``Quotient`` refuses, by ``check_table_sizes``, a field where even they
    would hold more than 2^20 entries.
    """
    cap = min(_CHUNK_TABLE_LIMIT, max(q**m, q**4))
    count = next((c for c in range(1, m + 1) if q ** (2 * -(-m // c)) <= cap), m)
    width, extra = divmod(m, count)
    return (width + 1,) * extra + (width,) * (count - extra)


@dataclass
class _ChunkTables:
    """Arithmetic on packed vectors of F^m, one base-q chunk at a time.

    Chunk j of a packed index is (index // scales[j]) % sizes[j], where
    scales[j] is q to the number of digits below chunk j and sizes[j] is q
    to its width.  For chunk values a, b and a field element c,
    ``add[j][a][b]`` is chunk j of the sum, ``mul[j][c][a]`` chunk j of c
    times the vector, and ``test[j][a][b]`` is the sum's chunk shifted back
    into place, so the packed index of a vector sum is the sum of its
    ``test`` lookups.
    """

    q: int
    m: int
    widths: tuple
    scales: tuple
    sizes: tuple
    add: list
    mul: list
    test: list

    def multiples(self, indices):
        """For c = 1 .. q-1 in turn, the list of the packed indices of c
        times each vector of ``indices``, in order; one ``mul`` lookup per
        chunk of each vector."""
        parts = [[index // s % z for index in indices] for s, z in zip(self.scales, self.sizes)]
        for c in range(1, self.q):
            total = [0] * len(indices)
            for mul, part, s in zip(self.mul, parts, self.scales):
                shifted = [v * s for v in mul[c]]
                total = list(map(operator.add, total, map(shifted.__getitem__, part)))
            yield total

    def coordinates(self, index):
        return tuple(index // self.q**c % self.q for c in range(self.m))


def _chunk_tables(field, m) -> _ChunkTables:
    """The chunk tables for packed vectors of F^m, from ``field.add`` and
    ``field.mul``; chunks of one width share their add and mul tables."""
    q = field.q
    widths = _chunk_widths(q, m)
    scales = tuple(q ** sum(widths[:j]) for j in range(len(widths)))
    by_width = {w: _width_tables(field, w) for w in set(widths)}
    add = [by_width[w][0] for w in widths]
    test = []
    for scale, table in zip(scales, add):
        shifted = [v * scale for v in range(len(table))]  # one int object per value
        test.append([[shifted[v] for v in row] for row in table] if scale > 1 else table)
    mul = [by_width[w][1] for w in widths]
    return _ChunkTables(q, m, widths, scales, tuple(q**w for w in widths), add, mul, test)


def _width_tables(field, width):
    """(add, mul) tables over chunks of ``width`` digits, grown one low
    digit at a time: a chunk a is a_hi * q + a_lo."""
    q = field.q
    add1 = [[field.add(a, b) for b in range(q)] for a in range(q)]
    mul1 = [[field.mul(c, a) for a in range(q)] for c in range(q)]
    values = list(range(q**width))  # one int object per chunk value
    add, mul = [[0]], [[0]] * q
    for _ in range(width):
        add = [
            [values[lo[b_lo] + hi] for hi in high for b_lo in range(q)]
            for high in ([q * v for v in row] for row in add)
            for lo in add1
        ]
        mul = [[values[lo + q * hi] for hi in old for lo in row] for row, old in zip(mul1, mul)]
    return add, mul


class _Torus:
    """A group of coordinate scalings of F^m: element g multiplies
    coordinate c by ``factors[g][c]``, and element 0 is the identity.

    It acts on RREF rows: the image of a row is divided by its pivot entry,
    so it is an RREF row with the same pivot, and on RREF bases row by row.
    A row's images under every element are computed on its first use and
    kept as long as the torus, which is one ``Quotient``'s.
    """

    def __init__(self, field, factors):
        q, m = field.q, len(factors[0])
        self.q = q
        self.factors = factors
        self._images = {}  # packed RREF row -> its images, in element order
        # _shifted[p][g][c - p - 1][v]: coordinate c > p of the image under g
        # of a row with pivot p and digit v at c, shifted into place
        self._shifted = [[] for _ in range(m)]
        for p, per_element in enumerate(self._shifted):
            for f in factors:
                ratios = field.axpy(field.inv(f[p]), f)
                per_element.append(
                    [[field.mul(ratios[c], v) * q**c for v in range(q)] for c in range(p + 1, m)]
                )

    @property
    def order(self):
        return len(self.factors)

    def image(self, g, index, pivot):
        """The packed index of the image under element g of the RREF row
        with packed index ``index`` and pivot ``pivot``."""
        q = self.q
        tables = self._shifted[pivot][g]
        return q**pivot + sum(t[index // q**c % q] for c, t in enumerate(tables, pivot + 1))

    def images(self, index):
        """The packed images of the RREF row with packed index ``index``
        under every element, in element order.  Its pivot is its lowest
        nonzero digit, so the index alone keys the kept tuple."""
        images = self._images.get(index)
        if images is None:
            pivot = next(c for c in itertools.count() if index // self.q**c % self.q)
            images = tuple(self.image(g, index, pivot) for g in range(self.order))
            self._images[index] = images
        return images


def _scan_pattern(chunks, good, torus, pattern, built):
    """Exhaustively decide all candidates whose RREF pivots are ``pattern``,
    one pivot at least; returns (candidates_decided, hit_row_lists), the
    hits in no set order, each a tuple of coordinate rows, top row first.

    Level j holds the rows with pivot pattern[j], and a candidate is one row
    per level.  Every vector is its packed class index, held as its base-q
    chunks: a row as its tuple of chunks, the span of the rows chosen so far
    as columns, one list per chunk.  A row whose own class is bad is dropped
    from its level once.  A row is accepted when ``good`` holds at row + w
    for every w in the nonzero span of the rows chosen before it: one
    ``test`` lookup per chunk gives the packed index, and one more reads
    ``good``; ``_descend`` says in which order the levels are filled and
    which rows are tested against which span elements.  A rejected row takes
    every completion of the levels still unfilled along.

    ``good`` must be constant on the orbits of the group ``torus``.  Every
    node scans one row per orbit of the stabilizer of the rows chosen
    before it, which maps each level's domain onto itself (see
    ``_descend``).

    ``built`` maps (pivot, free columns) to that level's (live, dead), as
    ``_level`` builds it from ``good``; levels missing from it are built and
    added, so patterns scanned with one dict share their levels.  The
    candidates of the pattern number q to its free positions, and the
    rejected and accepted ones, counted through the sizes the levels
    report, must add up to it.
    """
    q, m = chunks.q, chunks.m
    pivot_set = set(pattern)
    levels = []
    total = 1  # q to the free positions, counted apart from the levels
    for pivot in pattern:
        frees = tuple(c for c in range(pivot + 1, m) if c not in pivot_set)
        if (pivot, frees) not in built:
            built[pivot, frees] = _level(chunks, good, pivot, frees)
        live, dead = built[pivot, frees]
        levels.append((live, dead, len(live) + dead))
        total *= q ** len(frees)
    group = range(torus.order)
    domains = [(j, live) for j, (live, _, _) in enumerate(levels)]
    span = [[] for _ in chunks.widths]  # no element yet, in every chunk
    chosen = (None,) * len(levels)
    bad, hits = _descend(chunks, good, torus, levels, domains, span, group, chosen)
    got = bad + len(hits)
    if got != total:
        raise TheoremViolationError(
            f"scan bookkeeping drift on pattern {pattern}: {got} != {total}"
        )
    return total, [tuple(map(chunks.coordinates, hit)) for hit in hits]


def _level(chunks, good, pivot, frees):
    """(live, dead) for the RREF rows with this pivot and these free
    columns, in the order of their digits at the free columns, the last one
    fastest: live lists each row whose own class is good as (index, split,
    tabs), its packed index, its chunks and their ``test`` rows; dead
    counts the others.  Each chunk lists its values once, grown one column
    at a time (q^(c-low) added at the pivot column, d * q^(c-low) for each
    digit d at a free one); a row's chunks, ``test`` rows and index come
    from the product of those lists."""
    q = chunks.q
    # per chunk: its values, their test rows and the values shifted into
    # place; each product varies the last free column fastest
    values, tests, shifted = [], [], []
    low = 0
    for width, scale, test in zip(chunks.widths, chunks.scales, chunks.test):
        sums = [0]
        for c in range(low, low + width):
            step = q ** (c - low)
            if c == pivot:
                sums = [s + step for s in sums]
            elif c in frees:
                steps = [d * step for d in range(q)]
                sums = [s + t for s in sums for t in steps]
        values.append(sums)
        tests.append([test[v] for v in sums])
        shifted.append([v * scale for v in sums])
        low += width
    live, dead = [], 0
    rows = zip(itertools.product(*values), itertools.product(*tests))
    for index, (split, tabs) in zip(map(sum, itertools.product(*shifted)), rows):
        if good[index]:
            live.append((index, split, tabs))
        else:
            dead += 1
    return live, dead


def _descend(chunks, good, torus, levels, domains, span, group, chosen):
    """Scan the subtree under ``domains``, a (level, rows) pair for each
    unfilled level in level order, its rows the live rows of that level
    that pass against ``span``, the nonzero span of the rows filled so far;
    ``chosen`` holds those rows by level, None where unfilled.  Returns
    (rejected, hits): its rejected candidates and each hit's packed rows,
    top row first.

    Fail-first (Bitner and Reingold, CACM 18 (1975)): the node fills the
    unfilled level whose domain has the fewest rows, on a tie the highest
    level.  Any fill order is exact: once the pivots are fixed a candidate
    is one row per level, and "every span element is good" treats its rows
    alike.  A rejected row takes along ``skip``, the product of the full
    sizes (live plus dead) of the other unfilled levels, and the filled
    level's rows that are dead or failed against the span count
    (dead + |live| - |domain|) * skip.

    ``group`` lists the elements of ``torus`` that fix every row chosen so
    far, identity first.  They map the span onto itself and keep goodness,
    and each level's rows onto that level's, so they map every domain onto
    itself, whatever order filled the chosen rows, and rows of one orbit
    have isomorphic subtrees.  Only the least row of each orbit of the
    filled level is scanned, under its own stabilizer: its rejected
    candidates count once per row of the orbit, and its hits are mapped by
    one element per other row.

    The scan looks ahead to every level: each scanned row filters the other
    unfilled domains against the span elements it adds, in level order.
    When one comes up empty no row of that level completes the row, so its
    subtree, ``skip`` candidates, is rejected at its root and the remaining
    domains are not filtered.

    ``span`` holds its elements as columns, one list of chunk values per
    chunk (empty lists at the root), so ``_grow`` extends each chunk with
    one ``add`` lookup per element and ``_filter`` reads the chunks of one
    element side by side; a row that is not rejected passes its span, each
    column extended by the elements it adds, to the next node."""
    j = min(reversed(range(len(domains))), key=lambda i: len(domains[i][1]))
    level, domain = domains[j]
    others = domains[:j] + domains[j + 1 :]
    live, dead, _ = levels[level]
    skip = math.prod(levels[other][2] for other, _ in others)
    bad, hits = (dead + len(live) - len(domain)) * skip, []
    for index, split, _ in domain:
        every = torus.images(index)
        images = [every[g] for g in group]
        if min(images) < index:
            continue
        orbit = dict(zip(images, group))  # one element per row of the orbit
        stabilizer = [g for g, image in zip(group, images) if image == index]
        rows = chosen[:level] + (index,) + chosen[level + 1 :]
        if not others:
            rejected, found = 0, [rows]
        else:
            new = _grow(chunks, split, span)
            kept = []
            for other, rows_j in others:
                rows_j = _filter(good, rows_j, new)
                if not rows_j:
                    rejected, found = skip, []
                    break
                kept.append((other, rows_j))
            else:
                grown = [old + added for old, added in zip(span, new)]
                rejected, found = _descend(
                    chunks, good, torus, levels, kept, grown, stabilizer, rows
                )
        bad += len(orbit) * rejected
        hits += (
            tuple(torus.images(row)[g] for row in hit) for hit in found for g in orbit.values()
        )
    return bad, hits


def _filter(good, rows, span):
    """The rows (index, split, tabs), in order, with good[row + w] for every
    w in ``span``, whose elements come as columns, one list of chunk values
    per chunk: row + w is packed as the sum of the row's tabs at w's chunk
    values.  Reads go row by row, element by element, and a row stops at
    its first bad sum.

    With two chunks a read is one line, good[t0[a] + t1[b]], over the two
    columns side by side.  Any other chunk count sums the tabs per element
    through ``operator.getitem``, over the elements ``zip(*span)`` forms
    once per call.  The fork is the chunk count, which q and m fix: no form
    for every count avoided the call per read.  Over GF(3) (n=3 through I,
    process-time medians of 30 scans, Python 3.11 on a 2-core shared Xeon)
    the two-chunk line scanned in 18-24 ms, the per-element sum in 25-33 ms
    and a ``functools.reduce`` of maps over the chunks in 31-39 ms, over two
    runs of each."""
    kept = []
    if len(span) == 2:
        x0, x1 = span
        for row in rows:
            t0, t1 = row[2]
            for a, b in zip(x0, x1):
                if not good[t0[a] + t1[b]]:
                    break
            else:
                kept.append(row)
        return kept
    elements = list(zip(*span))
    for row in rows:
        tabs = row[2]
        for w in elements:
            if not good[sum(map(operator.getitem, tabs, w))]:
                break
        else:
            kept.append(row)
    return kept


def _grow(chunks, split, span):
    """The span elements that the row with chunks ``split`` adds to the
    rows whose nonzero span is ``span``: c * row + w for c = 1 .. q-1 and,
    for each c, first w = 0, then each w of ``span`` in order.  ``span`` and
    the result are columns, one list of chunk values per chunk; each chunk
    of c * row is one ``mul`` lookup, and its column of sums one ``add`` row
    mapped over the chunk's column."""
    new = []
    for add, mul, v, column in zip(chunks.add, chunks.mul, split, span):
        values = []
        for c in range(1, chunks.q):
            s = mul[c][v]
            values.append(s)
            values += map(add[s].__getitem__, column)
        new.append(values)
    return new

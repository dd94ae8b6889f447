"""Mixed-radix counters, the distinct-residue kernel behind the exhaustive searches, and the
multiset search behind the lattice oracle."""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .defaults import TOLERANCE
from .errors import CapExceededError

BLOCK = 1 << 15


def search_size(what: str, base: int, digits: int, cap: int) -> int:
    """base**digits, or CapExceededError naming ``what`` when that exceeds ``cap``.

    The message writes the size as base^digits, never in full, so it stays
    short at any size.  base**digits >= 2**(digits * (bit_length - 1)), so a
    size that is surely over cap is refused without computing it.
    """
    base = int(base)
    if digits * (base.bit_length() - 1) < cap.bit_length():
        size = base**digits
        if size <= cap:
            return size
    raise CapExceededError(f"{what} of size {base}^{digits} exceeds cap {cap}")


def counter_digits(values, num_digits: int, base: int) -> np.ndarray:
    """Digits of the given counter values, shape (num_digits, len(values)).

    Digit 0 is most significant, so column j read as a base-``base``
    numeral is values[j].
    """
    q = np.asarray(values, dtype=np.int64)
    digits = np.empty((num_digits, q.size), dtype=np.int64)
    for j in range(num_digits - 1, -1, -1):
        q, digits[j] = np.divmod(q, base)
    return digits


def digit_chunks(num_digits: int, base: int, chunk: int):
    """Yield (start, digits) blocks covering every base**num_digits counter value.

    ``digits`` is counter_digits of the block's values start, start + 1, ...;
    blocks come in ascending counter order, so each start is the sum of the
    sizes before it.  Every block holds between 1 and ``chunk`` values, and
    there are fewer than 2 * ceil(base**num_digits / chunk) blocks.

    No value is divided, as in scan_max: the low k digits, for the largest
    k with base**k <= chunk, are one table counter_digits(arange(base**k)),
    built once.  A block is t = chunk // base**k consecutive values of the
    digit above the table (fewer at the top of that digit) times the table,
    with the digits above that one constant.
    """
    k, size = 0, 1
    while k < num_digits and size * base <= chunk:
        k, size = k + 1, size * base
    table = counter_digits(np.arange(size), k, base)
    if k == num_digits:
        yield 0, table
        return
    above = num_digits - k - 1  # the digit above the table
    step = chunk // size
    start = 0
    for high in itertools.product(range(base), repeat=above):
        for top in range(0, base, step):
            t = min(step, base - top)
            digits = np.empty((num_digits, t * size), dtype=np.int64)
            digits[:above] = np.array(high, dtype=np.int64)[:, None]
            digits[above].reshape(t, size)[:] = np.arange(top, top + t)[:, None]
            digits[above + 1:].reshape(k, t, size)[:] = table[:, None, :]
            yield start, digits
            start += t * size


def scan_max(forms, tables, base: int):
    """Maximum over every counter value q of sum_r tables[r][(forms[r] . digits(q)) mod base].

    ``forms`` is an integer (rows, num_digits) array and ``tables`` a
    (rows, base) array; the terms are added in row order, so float results
    depend on that order.  Returns (maximum, digits of the lowest counter
    value attaining it) as Python scalars.

    A value depends on q only through its residue vector, and the residue
    vectors of the low digits form a subgroup of Z_base^rows, often far
    smaller than the counter.  The kernel lists that subgroup once, growing
    it from the last digit up: a column of order o modulo the vectors so far
    appends their o translates by 0, col, ..., (o-1) col, so the list holds
    each vector once, at the lowest counter value that reaches it, in
    counter order, and a column already in the span costs nothing.  Growth
    stops at the first column that would take the list past ``BLOCK``, and
    the list takes as many of that column's translates as fit.  One loop
    then runs, in counter order, over the digits above that column and its
    moves by that many translates; each block reads every row's table
    shifted by the residue of its own digits, and argmax on the list gives
    the lowest counter value of the block.  Each digit above runs over its
    column's own order, base // gcd(base, *column): the lowest counter value
    reaching a residue vector has every digit below that order, so a zero
    column adds no block.  No array outgrows a few times rows * BLOCK
    entries, whatever the base; the residue arithmetic is int64, so
    BLOCK * base must stay below 2^63.

    ``BLOCK`` is read when the scan is called.  A block streams a few arrays
    of rows * BLOCK entries, so it runs fastest while they stay in a core's
    L2 cache: BLOCK = 2^15 entries keeps seven rows at about 1.8 MB.  Every
    value is 0 plus the rows' terms in row order, so the maximum, its
    witness and its repr do not depend on BLOCK.
    """
    forms = np.asarray(forms, dtype=np.int64) % base
    tables = np.asarray(tables)
    rows, num_digits = forms.shape
    vecs = np.zeros((rows, 1), dtype=np.int64)
    grown = []  # (digit, order) of each column that grew the list, lowest digit first
    col = num_digits - 1
    while col >= 0:
        order = _order(forms[:, col], vecs, base)
        if vecs.shape[1] * order > BLOCK:
            break
        if order > 1:
            vecs = _translates(vecs, forms[:, col], order, base)
            grown.append((col, order))
        col -= 1
    size = vecs.shape[1]
    if col >= 0:
        step = BLOCK // size
        vecs = _translates(vecs, forms[:, col], step, base)
    else:
        step = order = 1
    looped = forms[:, :col + 1].tolist()
    tops = [range(base // math.gcd(base, *column)) for column in list(zip(*looped))[:col]]  # own orders
    # a row that vanishes on the looped digits reads its table once; the
    # others read their table shifted by s as a slice of the table written
    # twice, unless that copy would outgrow the rows * BLOCK bound
    still = {r: tables[r][vecs[r]] for r in range(rows) if not any(looped[r])}
    doubled = np.concatenate([tables, tables], axis=1) if base <= BLOCK else None
    sums = np.empty(vecs.shape[1], dtype=tables.dtype)
    terms = np.empty_like(sums)
    index = np.empty(vecs.shape[1], dtype=np.int64)
    best = None
    for block in itertools.product(*tops, range(0, order, step)):
        count = min(step, order - block[-1]) * size
        vals = sums[:count]
        vals[:] = 0
        for r in range(rows):
            if r in still:
                term = still[r][:count]
            else:
                s = sum(map(operator.mul, looped[r], block)) % base
                if doubled is not None:
                    # indices are in range; "clip" skips the copy of out that "raise" makes
                    term = np.take(doubled[r, s:s + base], vecs[r, :count], out=terms[:count], mode="clip")
                else:
                    # residue + shift is below 2 * base, which "wrap" folds back
                    term = np.take(tables[r], np.add(vecs[r, :count], s, out=index[:count]),
                                   out=terms[:count], mode="wrap")
            vals += term
        j = int(vals.argmax())
        if best is None or vals[j] > best:
            best = vals[j]
            at = (block, j)
    block, j = at
    digits = list(block[:col + 1]) + [0] * (num_digits - col - 1)
    if col >= 0:
        j, digits[col] = j % size, digits[col] + j // size
    for digit, order in grown:
        j, digits[digit] = divmod(j, order)
    return best.item(), tuple(digits)


def lattice_max(table, num_digits: int, base: int):
    """Maximum over every counter value q of table[q_1] + ... + table[q_n] - table[(q_1 + ... + q_n) mod base].

    Returns what scan_max returns for the n identity rows and the all-ones
    row with tables [table] * n + [-table]: the float maximum, its terms
    added from 0 in that row order, and the digits of the lowest counter
    value attaining it.  The value is symmetric in the digits, so the
    search runs over the C(n + base - 1, n) nondecreasing digit tuples
    instead of the base^n counter values.  Pass 1 evaluates each tuple and
    keeps those within TOLERANCE of the largest value seen so far.  Pass 2
    visits every distinct arrangement of each kept tuple still that near
    the final maximum in lexicographic order, which is counter order, and
    takes the largest value at the lowest counter value.

    This is exact for terms of magnitude at most 1, as cosines are: any
    order of adding the n + 1 terms lands within (n + 1)^2 2^-53 of their
    exact sum, so the sorted arrangement of the counter value attaining the
    float maximum is within twice that of every value seen, far inside
    TOLERANCE while n < 2000, and is kept.  The lowest counter value
    attaining the float maximum need not be sorted, so pass 2 visits every
    arrangement.  It needs n >= 2; with one digit the objective is
    table[q] - table[q], which lattice_bound_brute decides without a search.

    Pass 1 holds the sorted (n-2)-digit tuples whole (10,660 at most
    within SEARCH_CAP) and extends them by a digit to the (n-1)-digit
    prefixes one block of rows at a time.  The last digit runs from the
    prefix's last digit to base - 1, so a block reads it as slices of the
    table and of the table written twice; no block holds more than BLOCK
    values, as in scan_max.  A block of prefixes with different last digits
    starts from the lowest, so it also evaluates a few unsorted tuples: they
    are counter values too, and pass 2 takes only the sorted ones.
    """
    n, d = num_digits, base
    if n < 2:
        raise ValueError(f"lattice_max needs at least 2 digits, got {n}")
    table = np.asarray(table, dtype=np.float64)
    digits, partial, residues, ends = _sorted_tuples(n - 2, table, d)
    bounds = np.cumsum(ends)
    firsts = bounds - ends  # the prefixes ending in v are rows firsts[v] .. bounds[v] - 1
    # row s reads the table from residue s on, wrapping
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([table, table]), d)
    best = -np.inf
    kept = []  # (maximum, sorted tuples near it) of each block that came near the best so far
    r0 = 0
    while r0 < bounds[-1]:
        lo = int(np.searchsorted(bounds, r0, side="right"))
        rows = np.arange(r0, min(bounds[-1], r0 + max(1, BLOCK // (d - lo))))
        last = np.searchsorted(bounds, rows, side="right")
        parent = rows - firsts[last]
        starts = partial[parent] + table[last]
        sums = (residues[parent] + last) % d
        for c0 in range(lo, d, BLOCK):
            width = min(d - c0, BLOCK)
            vals = starts[:, None] + table[c0:c0 + width]
            vals -= windows[(sums + c0) % d, :width]
            top = vals.max()
            best = max(best, top)
            if top >= best - TOLERANCE:
                hit, cols = np.divmod(np.flatnonzero(vals >= best - TOLERANCE), width)
                cols += c0
                ordered = cols >= last[hit]
                hit, cols = hit[ordered], cols[ordered]
                kept.append((top, np.column_stack([digits[parent[hit]], last[hit], cols])))
        r0 = rows[-1] + 1
    found = _arrangements_max(np.concatenate([t for top, t in kept if top >= best - TOLERANCE]), table, d)
    return found[0].item(), found[1]


def _sorted_tuples(length: int, table, base: int):
    """Every nondecreasing digit tuple of the given length, grouped by last digit, ascending.

    Returns the tuples, 0 + table[t_1] + ... + table[t_k] added in that
    order, the digit sums mod base, and ends: the tuples ending at or below
    v, which v extends, are the first ends[v].
    """
    digits = np.zeros((1, 0), dtype=np.int64)
    vals = np.zeros(1)
    sums = np.zeros(1, dtype=np.int64)
    ends = np.ones(base, dtype=np.int64)
    for _ in range(length):
        last = np.repeat(np.arange(base), ends)
        parent = np.arange(last.size) - np.repeat(np.cumsum(ends) - ends, ends)
        digits = np.column_stack([digits[parent], last])
        vals = vals[parent] + table[last]
        sums = (sums[parent] + last) % base
        ends = np.cumsum(ends)
    return digits, vals, sums, ends


def _arrangements_max(tuples, table, base: int):
    """(maximum, lowest digits attaining it) over every arrangement of the given distinct nondecreasing tuples."""
    total = tuples.sum(axis=1) % base
    found = None
    while len(tuples):
        terms = table[tuples]
        terms[:, 0] += 0.0  # the scan starts from 0, which turns a leading -0.0 into 0.0
        vals = np.cumsum(terms, axis=1)[:, -1] - table[total]
        top = vals.max()
        if found is None or top >= found[0]:
            ties = tuples[vals == top]
            for j in range(tuples.shape[1]):
                if len(ties) == 1:
                    break
                ties = ties[ties[:, j] == ties[:, j].min()]
            found = _better(found, (top, tuple(ties[0].tolist())))
        more = (tuples[:, :-1] < tuples[:, 1:]).any(axis=1)
        tuples, total = tuples[more], total[more]
        if len(tuples):
            tuples = _next_arrangements(tuples)
    return found


def _next_arrangements(tuples) -> np.ndarray:
    """The next arrangement of each row in lexicographic order; every row must have one.

    The pivot is the last digit below its successor; it swaps with the last
    digit above it, and the digits after it, then nonincreasing, reverse.
    """
    rows = np.arange(len(tuples))
    n = tuples.shape[1]
    pivot = n - 2 - (tuples[:, -2::-1] < tuples[:, :0:-1]).argmax(axis=1)
    low = tuples[rows, pivot]
    swap = n - 1 - (tuples[:, ::-1] > low[:, None]).argmax(axis=1)
    tuples[rows, pivot] = tuples[rows, swap]
    tuples[rows, swap] = low
    k = np.arange(n)
    order = np.where(k > pivot[:, None], pivot[:, None] + n - k, k)
    return np.take_along_axis(tuples, order, axis=1)


def _better(a, b):
    """The larger of two (value, digits) results, the lower digits on a tie; None is neither."""
    if a is None or (b is not None and (b[0] > a[0] or (b[0] == a[0] and b[1] < a[1]))):
        return b
    return a


def _translates(vecs, col, count: int, base: int) -> np.ndarray:
    """Columns v + c * col mod base for 0 <= c < count, c-major, each block in vecs' order."""
    out = np.empty((len(vecs), count, vecs.shape[1]), dtype=np.int64)
    for row, x, block in zip(vecs, col, out):
        np.add(np.arange(count, dtype=np.int64)[:, None] * x % base, row, out=block)
    np.subtract(out, base, out=out, where=out >= base)
    return out.reshape(len(vecs), -1)


def _order(col, vecs, base: int) -> int:
    """Least o >= 1 with o * col mod base among the columns of vecs, a subgroup of Z_base^rows.

    The multiples of col in the subgroup form a cyclic group whose size
    divides both col's own order and the subgroup's size; o is col's order
    divided by that size, found one prime factor at a time.
    """
    col = col.tolist()
    order = base // math.gcd(base, *col)
    common = math.gcd(order, vecs.shape[1])
    p = 2
    while common > 1:
        if p * p > common:
            p = common
        while common % p == 0:
            common //= p
            if not _contains(vecs, [order // p * x % base for x in col]):
                break
            order //= p
        while common % p == 0:
            common //= p
        p += 1
    return order


def _contains(vecs, vec) -> bool:
    """Whether vec is one of the columns of vecs."""
    hits = np.flatnonzero(vecs[0] == vec[0])
    for row, x in zip(vecs[1:], vec[1:]):
        hits = hits[row[hits] == x]
    return hits.size > 0

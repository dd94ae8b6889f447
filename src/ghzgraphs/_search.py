"""Mixed-radix counters and the distinct-residue kernel behind the exhaustive searches."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapExceededError

CHUNK = 1 << 18


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


def digit_chunks(num_digits: int, base: int, chunk: int = CHUNK):
    """Yield (start, digits) blocks covering every base**num_digits counter value.

    ``digits`` is counter_digits of the block; blocks come in ascending
    counter order.
    """
    total = base**num_digits
    for start in range(0, total, chunk):
        yield start, counter_digits(np.arange(start, min(start + chunk, total)), num_digits, base)


def scan_max(forms, tables, base: int, chunk: int = CHUNK):
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
    stops at the first column that would take the list past ``chunk``.  That
    column is run in blocks of as many of its translates as fit, and the
    digits above it in a loop over their counter values; each block reads
    every row's table shifted by the residues of its fixed digits, and
    argmax on the list gives the lowest counter value of the block.  No
    array outgrows a few times rows * chunk entries, whatever the base; the
    residue arithmetic is int64, so chunk * base must stay below 2^63.
    """
    forms = np.asarray(forms, dtype=np.int64) % base
    tables = np.asarray(tables)
    rows, num_digits = forms.shape
    vecs = np.zeros((rows, 1), dtype=np.int64)
    grown = []  # (digit, order) of each column that grew the list, lowest digit first
    col = num_digits - 1
    while col >= 0:
        order = _order(forms[:, col], vecs, base)
        if vecs.shape[1] * order > chunk:
            break
        if order > 1:
            vecs = _translates(vecs, forms[:, col], order, base)
            grown.append((col, order))
        col -= 1
    size = vecs.shape[1]
    if col >= 0:
        step = chunk // size
        vecs = _translates(vecs, forms[:, col], step, base)
        step_shift = step * forms[:, col] % base
    else:
        step, order, step_shift = 1, 1, 0
    high_forms = forms[:, :max(col, 0)].tolist()
    # a row that no block shifts reads its table once; the others read it
    # shifted by s as a slice of the table written twice, unless that copy
    # would outgrow the rows * chunk bound
    still = {r: tables[r][vecs[r]] for r in range(rows) if not forms[r, :col + 1].any()}
    doubled = np.concatenate([tables, tables], axis=1) if base <= chunk else None
    sums = np.empty(vecs.shape[1], dtype=tables.dtype)
    terms = np.empty_like(sums)
    index = np.empty(vecs.shape[1], dtype=np.int64)
    best = None
    for top in itertools.product(range(base), repeat=max(col, 0)):
        shift = np.array([sum(a * x for a, x in zip(row, top)) % base for row in high_forms], dtype=np.int64)
        for move in range(0, order, step):
            count = min(step, order - move) * size
            vals = sums[:count]
            vals[:] = 0
            for r, s in enumerate(shift):
                if r in still:
                    term = still[r][:count]
                elif doubled is not None:
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
                at = (top, move, j)
            shift = (shift + step_shift) % base
    top, move, j = at
    digits = list(top) + [0] * (num_digits - len(top))
    if col >= 0:
        j, digits[col] = j % size, move + j // size
    for digit, order in grown:
        j, digits[digit] = divmod(j, order)
    return best.item(), tuple(digits)


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

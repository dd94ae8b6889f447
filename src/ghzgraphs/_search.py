"""Mixed-radix counters and the split-counter kernel behind the exhaustive searches."""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 18


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

    The counter is cut into runs of values that differ only in their low
    digits (at least the last one), and each run into blocks of at most
    ``chunk`` values.  Inside a block no digit carries, so row r's residues
    are those of the first block shifted by forms[r] . digits(block start):
    the first block's residues are computed once, and each block applies its
    shifts by reading every row's table rolled by the shift.
    """
    forms = np.asarray(forms, dtype=np.int64)
    tables = np.asarray(tables)
    num_digits = forms.shape[1]
    total = base**num_digits
    run = min(base, total)
    while run * base <= min(chunk, total):
        run *= base
    size = min(run, chunk)
    starts = [top + s for top in range(0, total, run) for s in range(0, run, size)]
    residues = (forms @ counter_digits(np.arange(size), num_digits, base)) % base
    shifts = (forms @ counter_digits(starts, num_digits, base)) % base
    doubled = np.concatenate([tables, tables], axis=1)
    sums = np.empty(size, dtype=tables.dtype)
    terms = np.empty_like(sums)
    best = None
    for start, shift in zip(starts, shifts.T):
        count = min(size, run - start % run)
        vals, term = sums[:count], terms[:count]
        vals[:] = 0
        for r, s in enumerate(shift):
            # indices are in range; "clip" skips the copy of out that "raise" makes
            np.take(doubled[r, s:s + base], residues[r, :count], out=term, mode="clip")
            vals += term
        j = int(vals.argmax())
        if best is None or vals[j] > best:
            best = vals[j]
            at = start + j
    return best.item(), tuple(int(x) for x in counter_digits([at], num_digits, base)[:, 0])

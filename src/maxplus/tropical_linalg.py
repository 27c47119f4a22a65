"""Vectors and matrices over the extended reals with max-plus operations.

A vector is a point of (R u {-inf, +inf})^n.  The semimodule operations
are entrywise max (vec_oplus) and translation by a scalar (vec_scale,
which adds the scalar to every entry with lower addition).  A p x n
matrix acts by

    (A x)_j = max_i ( A[j][i] + x_i )        (lower addition)

and the action is residuated: for each y the set {x | A x <= y} has a
greatest element, computed entrywise by scalar residuals,

    residuated_apply(A, y)_i = min_j ( y_j +' (-A[j][i]) ).

A matrix row whose entries are all -inf sends everything to -inf, and
its residual column is +inf; both operations are total here, no row or
column regularity is assumed.

Entries are plain numbers (see extreal), stored as dense tuples; a
matrix also keeps each row's indices above -inf, so its kernels cost
what the finite part costs.  Native + and - get only (-inf, +inf)
wrong, as NaN, which compares false: a max (min) reduction written as
"if t > best" ("<") skips it, as lower (upper) addition asks.

Text format (whitespace-separated tokens, see extreal.parse_scalar):
every object is a count line, then rows of n tokens, one row a line;
blank lines are ignored, so a row of width 0 takes no line.

    vector:      "n", then 1 row        (parse_vector / format_vector)
    half-space:  "n", then rows a, b    (halfspace.parse_halfspace)
    matrix:      "p n", then p rows     (parse_matrix / format_matrix;
                                         generator families alike)

parse_rows reads them all and format_rows writes them, token for token
its inverse, at every n and p including 0.  Whitespace is str.isspace
(the same characters as the regex \\s) and lines are str.splitlines;
the reader tokenizes with str.split, reads a row of plain integers and
-inf in one pass (parse_rows), and computes a column only for a
ParseError, which names the first bad token in reading order.
"""

from __future__ import annotations

import re

from .errors import DimensionError, ParseError
from .extreal import (NEG_INF, POS_INF, format_scalar, lower_add,
                      parse_scalar, scalar)


class TropicalVector:
    """An immutable point of (R u {-inf, +inf})^n."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple([scalar(e) for e in entries])

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, TropicalVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "vector([" + ", ".join(format_scalar(e) for e in self.entries) + "])"


def _vec(entries):
    """A TropicalVector over a tuple of valid scalars, not revalidated."""
    x = object.__new__(TropicalVector)
    x.entries = entries
    return x


class TropicalMatrix:
    """A p x n matrix; rows are TropicalVectors.  p = 0 is allowed
    (the action then imposes no constraint), so ncols must be passed
    when there is no row to infer it from."""

    __slots__ = ("rows", "ncols", "_support")

    def __init__(self, rows, ncols=None):
        self.rows = tuple(r if isinstance(r, TropicalVector) else TropicalVector(r)
                          for r in rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise DimensionError(f"ragged rows: widths {sorted(widths)}")
            inferred = widths.pop()
            if ncols is not None and ncols != inferred:
                raise DimensionError(f"ncols {ncols} but rows have width {inferred}")
            self.ncols = inferred
        else:
            if ncols is None:
                raise DimensionError("empty matrix needs an explicit ncols")
            self.ncols = ncols
        self._support = tuple([tuple([i for i, e in enumerate(r) if e != NEG_INF])
                               for r in self.rows])

    @property
    def nrows(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.ncols == other.ncols

    def __repr__(self):
        return f"matrix({list(self.rows)!r}, ncols={self.ncols})"


def vector(entries):
    return TropicalVector(entries)


def matrix(rows, ncols=None):
    return TropicalMatrix(rows, ncols)


def _check_len(x, y):
    if len(x) != len(y):
        raise DimensionError(f"length {len(x)} vs {len(y)}")


def vec_oplus(x, y):
    """Entrywise max."""
    _check_len(x, y)
    return _vec(tuple([a if a >= b else b for a, b in zip(x.entries, y.entries)]))


def vec_meet(x, y):
    """Entrywise min."""
    _check_len(x, y)
    return _vec(tuple([a if a <= b else b for a, b in zip(x.entries, y.entries)]))


def vec_scale(x, lam):
    """Translate every entry by lam (lower addition), the scalar action."""
    lam = scalar(lam)
    if lam == NEG_INF or lam == POS_INF:
        return _vec(tuple([lower_add(e, lam) for e in x.entries]))
    return _vec(tuple([e + lam for e in x.entries]))


def leq(x, y):
    """Entrywise order."""
    _check_len(x, y)
    return all(a <= b for a, b in zip(x.entries, y.entries))


def row_apply(a, x):
    """max_i (a_i + x_i) with lower addition; -inf on empty support."""
    _check_len(a, x)
    best = NEG_INF
    for ai, xi in zip(a.entries, x.entries):
        t = ai + xi  # NaN on (-inf, +inf), skipped by the comparison
        if t > best:
            best = t
    return best


def mat_apply(A, x):
    """The vector (row_apply(row, x) for each row)."""
    if A.ncols != len(x):
        raise DimensionError(f"matrix has {A.ncols} columns, vector has {len(x)}")
    xs = x.entries
    out = []
    for row, support in zip(A.rows, A._support):
        a = row.entries
        best = NEG_INF
        for i in support:
            t = a[i] + xs[i]  # NaN on (+inf, -inf), skipped by the comparison
            if t > best:
                best = t
        out.append(best)
    return _vec(tuple(out))


def vec_residual(x, y):
    """The greatest lambda with vec_scale(x, lambda) <= y:

        min_i ( y_i +' (-x_i) ).

    Entries with x_i = -inf impose nothing and are skipped; if every
    entry is skipped or cancels at an infinity the result is +inf.
    """
    _check_len(x, y)
    best = POS_INF
    for xi, yi in zip(x.entries, y.entries):
        t = yi - xi  # NaN where upper addition gives +inf: skipped
        if t < best:
            best = t
    return best


def residuated_apply(B, y):
    """The greatest x with mat_apply(B, x) <= y.

    Column i collects min over rows j with B[j][i] > -inf of
    scalar_residual(B[j][i], y_j); an all -inf column yields +inf.
    """
    if B.nrows != len(y):
        raise DimensionError(f"matrix has {B.nrows} rows, vector has {len(y)}")
    out = [POS_INF] * B.ncols
    for row, support, yj in zip(B.rows, B._support, y.entries):
        b = row.entries
        for i in support:
            t = yj - b[i]  # NaN on (+inf, +inf), skipped by the comparison
            if t < out[i]:
                out[i] = t
    return _vec(tuple(out))


# --- text formats ----------------------------------------------------------

_TOKEN = re.compile(r"\S+")
# an ASCII integer of at most 300 digits: int() and float() read it
# as parse_scalar does, and its value lies inside the float range
_PLAIN_INT = re.compile(r"[+-]?[0-9]{1,300}").fullmatch


def _lines(text):
    """Yield (line_number, line, tokens) for non-blank lines, 1-based."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks:
            yield lineno, line, toks


def _column(line, k):
    """The 1-based column of token k of line; only errors need it."""
    return [m.start() for m in _TOKEN.finditer(line)][k] + 1


def _bad_entry(toks, lineno, line, mode):
    """The ParseError for the first token of a row parse_scalar refuses."""
    for k, t in enumerate(toks):
        try:
            parse_scalar(t, mode)
        except ValueError as e:
            return ParseError(str(e), line=lineno, column=_column(line, k))


def parse_rows(text, mode=None, nrows=None):
    """Read the one text format: a count line, then rows of n tokens.

    The count line is "n" when nrows is given and "p n" otherwise, and
    p = nrows rows follow.  Blank lines are ignored, so a row of width
    0 takes no line.  Returns (rows, n), rows a tuple of vectors.  A
    count line "p 0" may name at most len(text) rows, so memory stays
    bounded by the input; format_rows writes one line per row, so every
    text it writes still reads back.

    Tokens are the maximal runs of characters that are not str.isspace
    (line.split()); the grammar of each is parse_scalar's.  Outside
    float mode, a row whose line is ASCII, has no "_", "." or "/" and
    has no token over 300 characters is read in one pass: "-inf" is
    -inf and every other token goes to int().  int() alone would also
    take "1_000" and non-ASCII digits, which the grammar refuses, and
    300 digits keep the value inside the float range; a "." or "/"
    marks a decimal or a ratio, which int() refuses anyway.  Any other
    row, one whose pass fails, and every row in float mode (where "-0"
    is -0.0, a sign int() drops) is read token by token: plain integers
    of up to 300 digits by int() or float(), the rest by parse_scalar.
    Columns are computed only for an error, which cites the first bad
    token in reading order.
    """
    lines = _lines(text)
    lineno, line, toks = next(lines, (None, None, ()))
    if lineno is None:
        raise ParseError("empty input, expected a count line")
    shape = "n" if nrows is not None else "p n"
    want = len(shape.split())
    if len(toks) != want:  # cite the first surplus token, else the last
        raise ParseError(f"count line must be {shape!r}, got {len(toks)} tokens",
                         line=lineno, column=_column(line, min(want, len(toks) - 1)))
    for k, t in enumerate(toks):
        if not (t.isascii() and t.isdecimal()):
            raise ParseError(f"expected a nonnegative integer count, got {t!r}",
                             line=lineno, column=_column(line, k))
    n = int(toks[-1])
    p = int(toks[0]) if nrows is None else nrows
    if not n and nrows is None and p > len(text):
        raise ParseError(f"{p} rows of width 0 exceed the {len(text)} characters "
                         "of the input", line=lineno, column=_column(line, 0))
    number = float if mode == "float" else int
    rows = []
    for _ in range(p):
        # width 0: no line
        lineno, line, toks = next(lines, (None, None, ())) if n else (0, "", ())
        if lineno is None:
            raise ParseError(f"expected {p} row(s) of {n} entries, got {len(rows)}")
        if len(toks) != n:
            raise ParseError(f"expected {n} entries in row {len(rows) + 1}, "
                             f"got {len(toks)}",
                             line=lineno, column=_column(line, 0))
        if (mode != "float" and "." not in line and "/" not in line
                and "_" not in line and line.isascii()
                and (len(line) <= 300 or max(map(len, toks)) <= 300)):
            try:  # the one-pass row path (parse_rows docstring)
                rows.append(_vec(tuple([NEG_INF if t == "-inf" else int(t)
                                        for t in toks])))
                continue
            except ValueError:
                pass
        try:
            rows.append(_vec(tuple([number(t) if _PLAIN_INT(t)
                                    else parse_scalar(t, mode) for t in toks])))
        except ValueError:
            raise _bad_entry(toks, lineno, line, mode) from None
    for lineno, line, _ in lines:
        raise ParseError(f"trailing tokens after {p} row(s)", line=lineno,
                         column=_column(line, 0))
    return tuple(rows), n


def format_rows(counts, rows):
    """The text parse_rows reads back: the count line, then each row."""
    lines = [" ".join(map(str, counts))]
    lines.extend(" ".join([format_scalar(e) for e in r]) for r in rows)
    return "\n".join(lines) + "\n"


def parse_vector(text, mode=None):
    rows, _ = parse_rows(text, mode, nrows=1)
    return rows[0]


def parse_matrix(text, mode=None):
    rows, n = parse_rows(text, mode)
    return TropicalMatrix(rows, ncols=n)


def format_vector(x):
    return format_rows((len(x),), (x,))


def format_matrix(A):
    return format_rows((A.nrows, A.ncols), A.rows)

"""Vector/matrix operations, residuation, and the text formats."""

import math
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from helpers import (NEG, POS, finite, read_outcome, reference_parse_rows,
                     ring_ineq_system, typed, v)

from maxplus.errors import DimensionError, ParseError

scalars = st.one_of(
    st.just(NEG), st.just(POS),
    st.integers(min_value=-9, max_value=9))


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n).map(mp.vector)


def matrices(p, n):
    return st.lists(st.lists(scalars, min_size=n, max_size=n),
                    min_size=p, max_size=p).map(mp.matrix)


def test_vec_oplus():
    assert mp.vec_oplus(v(1, NEG), v(0, 3)) == v(1, 3)
    x = v(2, -5, 0)
    assert mp.vec_oplus(x, x) == x
    assert mp.vec_oplus(v(NEG, NEG), v(0, 1)) == v(0, 1)


def test_vec_scale():
    assert mp.vec_scale(v(2, 1, 0), 0) == v(2, 1, 0)
    assert mp.vec_scale(v(2, 1, 0), NEG) == v(NEG, NEG, NEG)
    assert mp.vec_scale(v(1, NEG), 3) == v(4, NEG)


def test_vec_meet():
    assert mp.vec_meet(v(2, 1, 0), v(1, 1, 5)) == v(1, 1, 0)
    assert mp.vec_meet(v(POS, 0), v(0, POS)) == v(0, 0)


def test_row_apply():
    assert mp.row_apply(v(NEG, 0, NEG), v(2, 1, 0)) == 1
    assert mp.row_apply(v(NEG, NEG), v(5, 7)) == NEG
    assert mp.row_apply(v(0, 0, 0), v(2, 1, 0)) == 2


def test_mat_apply():
    eye = mp.matrix([[0, NEG], [NEG, 0]])
    assert mp.mat_apply(eye, v(3, -1)) == v(3, -1)
    S = ring_ineq_system()
    assert mp.mat_apply(S.A, v(0, 0, 0, 0, 0, 0)) == v(-1, -1, -1, -1, -1)
    allbot = mp.matrix([[NEG, NEG], [NEG, NEG]])
    assert mp.mat_apply(allbot, v(1, 2)) == v(NEG, NEG)


def test_vec_residual():
    assert mp.vec_residual(v(NEG, NEG, NEG), v(1, 2, NEG)) == POS
    assert mp.vec_residual(v(0, 1), v(2, 2)) == 1
    x = v(3, NEG, 0)
    assert mp.vec_residual(x, x) == 0
    for y in (v(NEG, NEG), v(NEG, POS), v(POS, POS)):
        assert mp.vec_residual(y, y) == POS


def test_residuated_apply():
    eye = mp.matrix([[0, NEG], [NEG, 0]])
    assert mp.residuated_apply(eye, v(4, -2)) == v(4, -2)
    S = ring_ineq_system()
    y = mp.mat_apply(S.A, v(0, 0, 0, 0, 0, 0))
    # column 6 of B is all -inf, so its residual coordinate is +inf
    assert mp.residuated_apply(S.B, y) == v(-1, -1, -1, -1, -1, POS)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        mp.vec_oplus(v(1, 2), v(1, 2, 3))
    with pytest.raises(DimensionError):
        mp.mat_apply(mp.matrix([[0, NEG]]), v(1, 2, 3))
    with pytest.raises(DimensionError):
        mp.residuated_apply(mp.matrix([[0, NEG]]), v(1, 2))
    with pytest.raises(DimensionError):
        mp.matrix([[0, 1], [0, 1, 2]])


@given(matrices(3, 3), vectors(3), vectors(3))
def test_galois_connection(A, x, y):
    lhs = mp.leq(mp.mat_apply(A, x), y)
    rhs = mp.leq(x, mp.residuated_apply(A, y))
    assert lhs == rhs


@given(matrices(2, 4), vectors(4), vectors(2))
def test_galois_connection_rectangular(A, x, y):
    assert mp.leq(mp.mat_apply(A, x), y) == mp.leq(x, mp.residuated_apply(A, y))


@given(vectors(4), st.integers(min_value=-9, max_value=9))
def test_residual_recovers_finite_scaling(x, lam):
    if not all(finite(e) for e in x):
        return
    assert mp.vec_residual(x, mp.vec_scale(x, lam)) == lam


@given(vectors(3), vectors(3), vectors(3))
def test_residual_monotonicity(x, xp, y):
    big = mp.vec_oplus(x, xp)  # x <= big
    assert mp.vec_residual(big, y) <= mp.vec_residual(x, y)
    assert mp.vec_residual(y, x) <= mp.vec_residual(y, big)


@given(matrices(3, 3), vectors(3), vectors(3),
       st.integers(min_value=-9, max_value=9))
def test_mat_apply_linearity(A, x, y, lam):
    assert mp.mat_apply(A, mp.vec_oplus(x, y)) == \
        mp.vec_oplus(mp.mat_apply(A, x), mp.mat_apply(A, y))
    assert mp.mat_apply(A, mp.vec_scale(x, lam)) == \
        mp.vec_scale(mp.mat_apply(A, x), lam)


# --- text formats ----------------------------------------------------------

def test_parse_vector():
    x = mp.parse_vector("3\n2 -inf 0\n")
    assert x == v(2, NEG, 0)
    x = mp.parse_vector("\n2\n\n  1 +inf \n\n")
    assert x == v(1, POS)


def test_parse_matrix():
    A = mp.parse_matrix("2 3\n0 -inf 2\n-1 -2 -3\n")
    assert A.nrows == 2 and A.ncols == 3
    assert A.rows[0] == v(0, NEG, 2)
    empty = mp.parse_matrix("0 4\n")
    assert empty.nrows == 0 and empty.ncols == 4


def test_parse_errors_cite_position():
    with pytest.raises(ParseError) as e:
        mp.parse_vector("3\n2 bogus 0\n")
    assert e.value.line == 2 and e.value.column == 3

    with pytest.raises(ParseError) as e:
        mp.parse_vector("3\n1 2\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        mp.parse_matrix("2 2\n1 2\n3 4\n5 6\n")
    assert e.value.line == 4

    with pytest.raises(ParseError):
        mp.parse_vector("")
    with pytest.raises(ParseError):
        mp.parse_matrix("x 2\n")


def test_int_mode_rejects_floats_with_position():
    with pytest.raises(ParseError) as e:
        mp.parse_vector("2\n1 2.5\n", mode="int")
    assert e.value.line == 2 and e.value.column == 3


def test_entry_tokens_are_ascii_without_separators():
    with pytest.raises(ParseError) as e:
        mp.parse_vector("3\n0 1_000 2\n")
    assert e.value.line == 2 and e.value.column == 3
    with pytest.raises(ParseError) as e:
        mp.parse_matrix("2 2\n0 0\n\u0661\u0662 -inf\n")
    assert e.value.line == 3 and e.value.column == 1
    with pytest.raises(ParseError) as e:
        mp.parse_vector("2\n-inf 1/2_0\n", mode="float")
    assert e.value.line == 2 and e.value.column == 6


def test_count_must_be_a_decimal_integer():
    with pytest.raises(ParseError) as e:
        mp.parse_vector("\u00b2\n1 2\n")
    assert e.value.line == 1 and e.value.column == 1


def test_count_digits_are_ascii():
    # non-ASCII decimal digits are refused on the count line as they
    # are in entries: Arabic-Indic three, fullwidth two
    for text, read, column in (("\u0663 1\n1\n2\n3\n", mp.parse_rows, 1),
                               ("3 \u0663\n1 2 3\n", mp.parse_rows, 3),
                               ("\uff12\n1 2\n", mp.parse_vector, 1)):
        with pytest.raises(ParseError, match="nonnegative integer count") as e:
            read(text)
        assert (e.value.line, e.value.column) == (1, column), text
        with pytest.raises(ParseError) as e:
            reference_parse_rows(text, nrows=None if read is mp.parse_rows else 1)
        assert (e.value.line, e.value.column) == (1, column), text


def test_parse_rows():
    rows, n = mp.parse_rows("2 3\n0 -inf 2\n\n-1 -2 +inf\n")
    assert (rows, n) == ((v(0, NEG, 2), v(-1, -2, POS)), 3)
    assert mp.parse_rows("3\n1 2 3\n4 5 6\n", nrows=2) == ((v(1, 2, 3), v(4, 5, 6)), 3)
    assert mp.parse_rows("2 0\n") == ((v(), v()), 0)
    assert mp.parse_rows("0\n", nrows=2) == ((v(), v()), 0)
    assert mp.format_rows((2, 3), rows) == "2 3\n0 -inf 2\n-1 -2 +inf\n"
    with pytest.raises(ParseError) as e:
        mp.parse_rows("0\n1\n", nrows=1)
    assert e.value.line == 2 and e.value.column == 1


def test_empty_dimensions_round_trip():
    x = v()
    assert mp.format_vector(x) == "0\n\n"
    assert mp.parse_vector(mp.format_vector(x)) == x
    for A in (mp.matrix([[], []]), mp.matrix([], ncols=0), mp.matrix([], ncols=3)):
        assert mp.parse_matrix(mp.format_matrix(A)) == A


def test_width_0_row_count_is_bounded_by_the_input():
    # a count line "p 0" may name at most len(text) rows, so a short
    # text cannot ask for millions of empty rows
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="99999999 rows of width 0") as e:
            mp.parse_rows("99999999 0\n")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.value.line, e.value.column) == (1, 1)
    assert elapsed < 1 and peak < 10 * 2**20
    # every text format_rows writes reads back, at the bound and past it
    rng = random.Random(16)
    for p in [0, 1, 2, 3, 4, 5, 99] + rng.sample(range(100, 20000), 5):
        text = mp.format_rows((p, 0), [v()] * p)
        assert mp.parse_rows(text) == ((v(),) * p, 0)
        for cut in (text.rstrip("\n"), f"{p} 0", f"{p} 0\n"):
            want = read_outcome(reference_parse_rows, cut, None, None)
            assert read_outcome(mp.parse_rows, cut, None, None) == want
            assert (want[0] == "rows") is (p <= len(cut)), cut
    # a count given by the caller is not bounded by the text
    assert mp.parse_rows("0", nrows=2) == ((v(), v()), 0)


@given(st.lists(scalars, min_size=0, max_size=7))
def test_vector_round_trip(entries):
    x = mp.vector(entries)
    assert mp.parse_vector(mp.format_vector(x)) == x


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(scalars, min_size=n, max_size=n),
                       min_size=0, max_size=4).map(lambda rows: (rows, n))))
def test_matrix_round_trip(shape):
    rows, n = shape
    A = mp.matrix(rows, ncols=n)
    assert mp.parse_matrix(mp.format_matrix(A)) == A


# --- the reader against its regex reference --------------------------------

MODES = (None, "int", "float")
# tokens the grammar accepts and tokens it refuses; the plain integers
# of up to 300 digits among them skip parse_scalar in the reader
GOOD_TOKENS = ("0", "7", "-3", "+5", "-0", "007", "12", "-inf", "+inf", "inf",
               "1e3", "2.5", "5/2", "-4/2", "INF", "-Infinity", "+INFINITY",
               "9" * 300, "-" + "9" * 300, "9" * 301, "1" + "0" * 308)
BAD_TOKENS = ("1/0", "nan", "NaN", "1e999", "-1e999", "9" * 309, "4" * 400,
              "-" + "4" * 400, "1_000", "1/2_0", "\u0661\u0662",
              "\uff11\uff12", "\u00b2", "bogus", "+-1", "--1", "0x10", "2.5.1",
              "-", "+", "/", "e3")
# separators are str.isspace and do not end a line; every line end
# of str.splitlines is str.isspace too
SPACES = (" ", " ", " ", "\t", "  ", "\xa0", "\u3000", "\u2003", "\x1f")
LINE_ENDS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
             "\u2028")
COUNT_LINES = ("x 2", "2 x", "\u00b2", "-1 2", "2 3 4", "\u0663 2", "2.0",
               "1 1 1", "+2", "")


def _rand_reader_text(rng):
    """A text in the one format with, now and then, one thing wrong:
    a bad count line, a bad token, a short, long, extra or missing row."""
    nrows = rng.choice((None, None, 1, 2))
    p = nrows if nrows is not None else rng.randint(0, 3)
    n = rng.randint(0, 4)
    counts = [str(n)] if nrows is not None else [str(p), str(n)]

    def sep():
        return "".join(rng.choice(SPACES) for _ in range(rng.randint(1, 2)))

    def pad():
        return sep() if rng.random() < 0.2 else ""

    count = pad() + sep().join(counts) + pad()
    if rng.random() < 0.08:
        count = rng.choice(COUNT_LINES)
    lines = [count]
    nlines = p + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    for _ in range(max(nlines, 0)):
        k = n + (rng.choice((-1, 1)) if rng.random() < 0.05 else 0)
        toks = [rng.choice(BAD_TOKENS) if rng.random() < 0.02
                else rng.choice(GOOD_TOKENS) for _ in range(max(k, 0))]
        lines.append(pad() + sep().join(toks) + pad())
        if rng.random() < 0.15:
            lines.append(rng.choice(("", " ", "\t")))
    text = ""
    for line in lines:
        text += line + rng.choice(LINE_ENDS)
    return text if rng.random() < 0.9 else text.rstrip("\n"), nrows


def test_split_cuts_where_the_regex_does():
    # the reader's tokens are line.split(), its error columns come from
    # the regex \S+: they agree on every code point
    ws = re.compile(r"\s").fullmatch
    assert [c for c in map(chr, range(sys.maxunicode + 1))
            if c.isspace() != bool(ws(c))] == []


def test_reader_matches_regex_reference_seeded():
    rng = random.Random(27)
    outcomes = set()
    for _ in range(1500):
        text, nrows = _rand_reader_text(rng)
        for mode in MODES:
            want = read_outcome(reference_parse_rows, text, mode, nrows)
            assert read_outcome(mp.parse_rows, text, mode, nrows) == want, (text, mode)
            outcomes.add(want[0])
    assert outcomes == {"rows", "error"}


token_texts = st.tuples(
    st.lists(st.lists(st.sampled_from(GOOD_TOKENS + BAD_TOKENS), max_size=4),
             max_size=4),
    st.lists(st.sampled_from(SPACES), min_size=1, max_size=3),
    st.sampled_from(LINE_ENDS)).map(
        lambda t: t[2].join(["".join(t[1]).join(row) for row in t[0]]))
raw_texts = st.text(alphabet="0123456789+-./eEinfINF_ \t\n\r\xa0\x1c\u0661",
                    max_size=30)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.one_of(token_texts, raw_texts), st.sampled_from((None, 1, 2)),
       st.sampled_from(MODES))
def test_reader_matches_regex_reference(p, n, body, nrows, mode):
    count = f"{n}" if nrows is not None else f"{p} {n}"
    for text in (count + "\n" + body, body):
        assert (read_outcome(mp.parse_rows, text, mode, nrows)
                == read_outcome(reference_parse_rows, text, mode, nrows))


def test_reader_integer_shortcut_boundaries():
    # plain integers of up to 300 digits skip parse_scalar; longer ones,
    # up to the float range and beyond it, must read as it reads them
    for digits in ("9" * 300, "9" * 301, "9" * 308, "1" + "0" * 308,
                   "2" + "0" * 308, "9" * 309, "1" + "0" * 400):
        for sign in ("", "-", "+"):
            for mode in MODES:
                text = "2\n0 " + sign + digits + "\n"
                assert (read_outcome(mp.parse_rows, text, mode, 1)
                        == read_outcome(reference_parse_rows, text, mode, 1))


def _held_to_reference(text, nrows=1):
    """read_outcome of parse_rows in every mode, each checked against the
    regex reference (float signs included)."""
    got = {}
    for mode in MODES:
        got[mode] = read_outcome(mp.parse_rows, text, mode, nrows)
        assert got[mode] == read_outcome(reference_parse_rows, text, mode, nrows), \
            (text, mode)
    return got


def test_reader_rows_keep_signed_zeros():
    # -0 is the int 0 in modes None and int and the float -0.0 in float
    # mode, whichever path reads its row
    for row in ("-0 +0 -00", "0 -0", "-0 -inf", "-0 2.5", "-00  0"):
        _held_to_reference(f"{len(row.split())}\n{row}\n")
    text = "3\n-0 +0 -00\n"
    for mode in (None, "int"):
        assert typed(mp.parse_vector(text, mode)) == [("int", 0)] * 3
    assert [math.copysign(1, e) for e in mp.parse_vector(text, "float")] == [-1, 1, -1]


def test_reader_rows_with_infinities():
    for row in ("-inf -INF +inf inf -Infinity", "-inf 3 -inf", "+inf -inf 0",
                "-inf", "inf 1"):
        got = _held_to_reference(f"{len(row.split())}\n{row}\n")
        assert got[None][0] == got["int"][0] == "rows", row


def test_reader_rows_around_300_characters():
    # a row whose line has at most 300 characters, or whose tokens all
    # have, is read in one pass; a longer token goes through parse_scalar
    nines = "9" * 300
    rows = (nines, "1 " + nines, "1 " + "9" * 301, "-" + nines + " 2",
            "1 -" + nines, "3 " + "9" * 309, " ".join(["12"] * 120),
            " ".join(["-inf"] * 70 + ["7"]), "1 " * 150 + "9" * 301)
    for row in rows:
        _held_to_reference(f"{len(row.split())}\n{row}\n")
    got = _held_to_reference(f"2\n1 {'9' * 301}\n")
    assert got["int"][1][0][1] == ("int", int("9" * 301))


def test_reader_error_names_the_first_refused_token():
    for bad in ("1_0", "\u0661", "nan", "0x10"):
        for toks in ([bad, "1", "2"], ["-inf", bad, "2"], ["1", "-inf", bad],
                     ["1", bad, "nan"], ["5", bad, bad]):
            line = "  ".join(toks)
            column = line.index(bad) + 1
            got = _held_to_reference(f"1 3\n\n{line}\n", nrows=None)
            for mode in MODES:
                assert got[mode][0] == "error" and got[mode][2:] == (3, column), \
                    (line, mode)

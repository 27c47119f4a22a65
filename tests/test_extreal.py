"""Scalar layer: the two additions, residuation, tokens."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus import HalfSpace, matrix, vector
from maxplus.extreal import (NEG_INF, POS_INF, format_scalar, lower_add,
                             negate, parse_scalar, scalar, scalar_residual,
                             upper_add)
from helpers import finite

ALL5 = [NEG_INF, -1, 0, 1, POS_INF]
# one payload of each kind, two of them equal in value
MIXED = [NEG_INF, -3, 0, Fraction(5, 2), 2.5, POS_INF]

scalars = st.one_of(
    st.just(NEG_INF), st.just(POS_INF),
    st.integers(min_value=-50, max_value=50))


def test_lower_add_infinity_convention():
    assert lower_add(NEG_INF, POS_INF) == NEG_INF
    assert lower_add(POS_INF, NEG_INF) == NEG_INF
    assert lower_add(3, 4) == 7
    assert lower_add(POS_INF, POS_INF) == POS_INF
    assert lower_add(5, POS_INF) == POS_INF
    assert lower_add(5, NEG_INF) == NEG_INF


def test_upper_add_infinity_convention():
    assert upper_add(POS_INF, NEG_INF) == POS_INF
    assert upper_add(NEG_INF, POS_INF) == POS_INF
    assert upper_add(3, 4) == 7
    assert upper_add(NEG_INF, NEG_INF) == NEG_INF
    assert upper_add(5, NEG_INF) == NEG_INF


def test_negate():
    assert negate(NEG_INF) == POS_INF
    assert negate(POS_INF) == NEG_INF
    assert negate(5) == -5
    for a in ALL5:
        assert negate(negate(a)) == a


def test_residual_value_table():
    # rows mu in {-inf, finite, +inf} x columns nu in the same order
    r = 2
    table = {
        (NEG_INF, NEG_INF): POS_INF,
        (NEG_INF, r): POS_INF,
        (NEG_INF, POS_INF): POS_INF,
        (r, NEG_INF): NEG_INF,
        (r, 5): 3,
        (r, POS_INF): POS_INF,
        (POS_INF, NEG_INF): NEG_INF,
        (POS_INF, r): NEG_INF,
        (POS_INF, POS_INF): POS_INF,
    }
    for (mu, nu), want in table.items():
        assert scalar_residual(mu, nu) == want, (mu, nu)


def test_residual_finite_iff_both_finite():
    for mu in ALL5:
        for nu in ALL5:
            got = scalar_residual(mu, nu)
            assert finite(got) == (finite(mu) and finite(nu))


def test_galois_connection_exhaustive():
    for mu in ALL5:
        for nu in ALL5:
            res = scalar_residual(mu, nu)
            for lam in ALL5:
                assert (lower_add(mu, lam) <= nu) == (lam <= res), (mu, nu, lam)


def test_de_morgan_exhaustive():
    for a in ALL5:
        for b in ALL5:
            assert negate(upper_add(a, b)) == lower_add(negate(a), negate(b))
            assert negate(lower_add(a, b)) == upper_add(negate(a), negate(b))


def test_associativity_exhaustive():
    for a in ALL5:
        for b in ALL5:
            for c in ALL5:
                assert lower_add(lower_add(a, b), c) == lower_add(a, lower_add(b, c))
                assert upper_add(upper_add(a, b), c) == upper_add(a, upper_add(b, c))


@given(scalars, scalars)
def test_commutativity(a, b):
    assert lower_add(a, b) == lower_add(b, a)
    assert upper_add(a, b) == upper_add(b, a)


@given(scalars, scalars)
def test_additions_differ_only_at_opposite_infinities(a, b):
    if {a, b} == {NEG_INF, POS_INF}:
        assert lower_add(a, b) == NEG_INF
        assert upper_add(a, b) == POS_INF
    else:
        assert lower_add(a, b) == upper_add(a, b)


def test_total_order():
    assert NEG_INF < -10 < 0 < 10 < POS_INF
    assert sorted([POS_INF, 1, NEG_INF, -3]) == [NEG_INF, -3, 1, POS_INF]


def test_constructor_rejects_encoded_infinities():
    # the float infinities are the infinite scalars; NaN is no scalar
    with pytest.raises(ValueError):
        scalar(float("nan"))
    with pytest.raises(ValueError):
        vector([0, float("nan")])
    with pytest.raises(TypeError):
        scalar(None)
    assert scalar(float("inf")) == POS_INF
    assert scalar(float("-inf")) == NEG_INF


def _lower(a, b):
    if NEG_INF in (a, b):
        return NEG_INF
    return POS_INF if POS_INF in (a, b) else a + b


def _upper(a, b):
    if POS_INF in (a, b):
        return POS_INF
    return NEG_INF if NEG_INF in (a, b) else a + b


def _same(got, want):
    return got == want and type(got) is type(want)


def test_mixed_payload_table_exhaustive():
    # the definitions by cases, over int, Fraction and float payloads;
    # a finite result keeps the payload type of the exact sum
    for a in MIXED:
        assert _same(negate(a), -a)
        for b in MIXED:
            assert _same(lower_add(a, b), _lower(a, b)), (a, b)
            assert _same(upper_add(a, b), _upper(a, b)), (a, b)
            assert _same(scalar_residual(a, b), _upper(b, -a)), (a, b)
    assert _same(lower_add(Fraction(5, 2), 2.5), 5.0)
    assert _same(scalar_residual(Fraction(5, 2), 0), Fraction(-5, 2))
    assert scalar_residual(NEG_INF, NEG_INF) == POS_INF
    assert scalar_residual(POS_INF, POS_INF) == POS_INF


def test_mixed_payload_galois_and_de_morgan():
    for a in MIXED:
        for b in MIXED:
            assert negate(upper_add(a, b)) == lower_add(negate(a), negate(b))
            assert negate(lower_add(a, b)) == upper_add(negate(a), negate(b))
            res = scalar_residual(a, b)
            for lam in MIXED:
                assert (lower_add(a, lam) <= b) == (lam <= res), (a, b, lam)


# --- tokens ----------------------------------------------------------------

def test_parse_tokens():
    assert parse_scalar("-inf") == NEG_INF
    assert parse_scalar("-Inf") == NEG_INF
    assert parse_scalar("inf") == POS_INF
    assert parse_scalar("+inf") == POS_INF
    assert parse_scalar("42") == 42
    assert parse_scalar("-7") == -7
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar("5/2") == Fraction(5, 2)


def test_infinity_tokens_ignore_case():
    for mode in (None, "int", "float"):
        for tok in ("-inf", "-INF", "-iNf", "-infinity", "-INFINITY", "-InFiNiTy"):
            assert parse_scalar(tok, mode) == NEG_INF, tok
        for tok in ("inf", "INF", "+iNf", "infinity", "INFINITY", "+INFINITY",
                    "+Infinity"):
            assert parse_scalar(tok, mode) == POS_INF, tok
        for bad in ("nan", "NaN", "+nan", "-NAN", "infinite", "--inf", "+-inf"):
            with pytest.raises(ValueError):
                parse_scalar(bad, mode)


def test_int_mode_refuses_non_integers():
    with pytest.raises(ValueError):
        parse_scalar("2.5", mode="int")
    with pytest.raises(ValueError):
        parse_scalar("5/2", mode="int")
    assert parse_scalar("-inf", mode="int") == NEG_INF
    assert parse_scalar("3", mode="int") == 3


def test_float_mode_coerces():
    got = parse_scalar("3", mode="float")
    assert finite(got) and isinstance(got, float) and got == 3.0
    got = parse_scalar("5/2", mode="float")
    assert got == 2.5


def test_parse_garbage():
    for bad in ("", "abc", "--3", "1/0"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_finite_tokens_are_ascii_without_separators():
    # int, float and Fraction read all of these; the token grammar does not
    for bad in ("1_000", "\u0661\u0662", "1_0.5", "1/2_0", "1e1_0", "\uff17"):
        for mode in (None, "int", "float"):
            with pytest.raises(ValueError):
                parse_scalar(bad, mode)
        with pytest.raises(ValueError):
            scalar(bad)
    assert parse_scalar("1000") == 1000 and parse_scalar("1/20") == Fraction(1, 20)


def test_boundary_rejects_nan_and_overflow():
    for mode in (None, "float"):
        for bad in ("nan", "NaN", "1e400", "-1e400", "1e400/3"):
            with pytest.raises(ValueError):
                parse_scalar(bad, mode)
    huge = "1" + "0" * 400
    for mode in (None, "int"):
        with pytest.raises(ValueError):
            parse_scalar(huge, mode)
    for bad in ("nan", "1e400", 10 ** 400, Fraction(10 ** 400, 3)):
        with pytest.raises(ValueError):
            scalar(bad)
        with pytest.raises(ValueError):
            vector([0, bad])


def test_boundary_rejects_bool():
    # bool is an int subclass, but a stored True would be written as
    # "True", which parse_scalar refuses
    for b in (True, False):
        with pytest.raises(TypeError, match="unsupported scalar type: bool"):
            scalar(b)
        with pytest.raises(TypeError, match="unsupported scalar type: bool"):
            vector([b, 2])
        with pytest.raises(TypeError, match="unsupported scalar type: bool"):
            matrix([[0, 1], [2, b]])
        with pytest.raises(TypeError, match="unsupported scalar type: bool"):
            HalfSpace([b, NEG_INF], [NEG_INF, 0])
    assert type(scalar(1)) is int


def test_unit_denominator_is_an_integer():
    assert format_scalar(Fraction(6, 2)) == "3"
    assert format_scalar(Fraction(5, 2) + Fraction(1, 2)) == "3"
    assert format_scalar(Fraction(-4, 4)) == "-1"
    assert scalar(Fraction(4, 2)) == 2 and type(scalar(Fraction(4, 2))) is int
    assert type(parse_scalar("8/4")) is int


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_integer_token_round_trip(k):
    assert parse_scalar(format_scalar(k)) == k


@given(st.fractions(min_value=-100, max_value=100, max_denominator=97))
def test_fraction_token_round_trip(q):
    a = scalar(q)
    assert parse_scalar(format_scalar(a)) == a


def test_infinity_token_round_trip():
    assert parse_scalar(format_scalar(NEG_INF)) == NEG_INF
    assert parse_scalar(format_scalar(POS_INF)) == POS_INF

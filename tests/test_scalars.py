"""Scalar field arithmetic and the exact text format."""

import math
import random
from fractions import Fraction

import pytest

from weyrlab.errors import ParseError
from weyrlab.scalars import (
    INF,
    Infinity,
    format_extended,
    format_scalar,
    gr,
    lex_key,
    parse_extended,
    parse_scalar,
)


def test_equal_values_share_normal_form():
    assert gr(Fraction(2, 4)) == gr(Fraction(1, 2))
    assert gr(Fraction(-3, -6)) == gr(Fraction(1, 2))
    a = gr(Fraction(2, 4), Fraction(6, 4))
    assert (a.re.numerator, a.re.denominator, a.im.numerator, a.im.denominator) == (1, 2, 3, 2)


def test_reduced_form_invariants():
    rng = random.Random(7)
    for _ in range(200):
        z = gr(Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
               Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
        assert z.re.denominator > 0 and z.im.denominator > 0
        assert math.gcd(abs(z.re.numerator), z.re.denominator) == 1
        assert math.gcd(abs(z.im.numerator), z.im.denominator) == 1


def test_field_arithmetic():
    z = gr(1, 2)
    w = gr(3, -1)
    assert z + w == gr(4, 1)
    assert z - w == gr(-2, 3)
    assert z * w == gr(5, 5)
    assert (z / w) * w == z
    assert -z == gr(-1, -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_random_field_axioms():
    rng = random.Random(11)

    def rand():
        return gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if b:
            assert (a / b) * b == a


@pytest.mark.parametrize(
    "text",
    ["3", "-7", "2/5", "-2/5", "1/2+3/4*i", "1/2-3/4*i", "0+1*i", "-3-2*i", "4+1/3*i"],
)
def test_parse_format_round_trip(text):
    z = parse_scalar(text)
    assert parse_scalar(format_scalar(z)) == z


def test_integer_shorthand():
    assert parse_scalar("5") == parse_scalar("5/1")
    assert parse_scalar("2+3*i") == parse_scalar("2/1+3/1*i")
    assert format_scalar(gr(5)) == "5"
    assert format_scalar(gr(Fraction(1, 2), -1)) == "1/2-1*i"


@pytest.mark.parametrize(
    "text",
    ["", " 1", "1 ", "1/0", "i", "1+i", "1+2i", "2*i", "1//2", "1/2 + 3/4*i", "abc", "1.5"],
)
def test_malformed_scalars_rejected(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_extended_scalars():
    assert parse_extended("inf") is INF
    assert isinstance(parse_extended("inf"), Infinity)
    assert parse_extended("2/3") == gr(Fraction(2, 3))
    assert format_extended(INF) == "inf"
    assert format_extended(gr(1, 1)) == "1+1*i"
    assert Infinity() == INF


def test_lex_key_orders_deterministically():
    values = [gr(1), gr(0, 1), gr(-1), gr(0), gr(1, -1)]
    ordered = sorted(values, key=lex_key)
    assert ordered == [gr(-1), gr(0), gr(0, 1), gr(1, -1), gr(1)]

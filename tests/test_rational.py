import random
from fractions import Fraction

import pytest

from lieext.rational import format_rational, parse_integer, parse_rational, rational


def test_canonical_form_examples():
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(3, -9) == Fraction(-1, 3)
    assert rational(0, 7) == Fraction(0)
    # canonical form is maintained by the type itself
    v = rational(3, -9)
    assert v.denominator > 0
    assert v.numerator == -1


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        rational(1, 0)
    with pytest.raises(ValueError):
        rational(0, 0)


def test_parse_basic():
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("+2/4") == Fraction(1, 2)
    assert parse_rational("0") == 0


@pytest.mark.parametrize(
    "bad", ["", "1.5", "1/0", "a/b", "1/-2", "1 / 2", "--3", "1e3", "/3", "3/", "\u0661", "1/\u0662", "1_0"]
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_integer_reads_ascii_digits():
    assert parse_integer(" -12 ") == -12
    assert parse_integer("+7") == 7
    for bad in ["", "1_2", "\u0661\u0662", "1.0", "1/1", "0x1", "--1", "1 2"]:
        with pytest.raises(ValueError, match="not an integer literal"):
            parse_integer(bad)


def test_format_round_trip_examples():
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational(format_rational(Fraction(22, -8))) == Fraction(-11, 4)


def test_random_round_trip_and_ring_ops():
    rng = random.Random(20240817)
    for _ in range(200):
        a = rational(rng.randint(-999, 999), rng.choice([i for i in range(-40, 41) if i]))
        b = rational(rng.randint(-999, 999), rng.choice([i for i in range(-40, 41) if i]))
        assert parse_rational(format_rational(a)) == a
        # re-canonicalizing through (num, den) construction is the identity
        for value in (a + b, a * b, a - b):
            assert rational(value.numerator, value.denominator) == value
        if b != 0:
            q = a / b
            assert rational(q.numerator, q.denominator) == q

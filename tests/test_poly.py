import random
from fractions import Fraction

import pytest

from lieext.dsl import _Parser
from lieext.poly import IndexPolynomial

from isomorphism import power, substitute

V = IndexPolynomial.variable
C = IndexPolynomial.constant


def _random_poly(rng, variables=("m", "n", "lambda", "mu")):
    poly = IndexPolynomial()
    for _ in range(rng.randint(0, 5)):
        term = C(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for var in variables:
            for _ in range(rng.randint(0, 2)):
                term = term * V(var)
        poly = poly + term
    return poly


def _random_assignment(rng, variables=("m", "n", "lambda", "mu")):
    return {v: Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for v in variables}


def test_eval_structure_constant_examples():
    # m - (lambda+1)/2 * n + mu, the L-Y coefficient shape
    p = V("m") - (V("lambda") + C(1)) / 2 * V("n") + V("mu")
    assert p.evaluate({"m": 2, "n": 0, "lambda": 1, "mu": Fraction(1, 3)}) == Fraction(7, 3)
    assert (V("m") - V("n")).evaluate({"m": 3, "n": 3}) == 0
    q = V("m") - V("lambda") * V("n") + 2 * V("mu")
    assert q.evaluate({"m": 1, "n": 2, "lambda": -1, "mu": 1}) == 5


def test_eval_unbound_variable_is_error():
    p = V("m") + V("mu")
    with pytest.raises(ValueError, match="unbound variable 'mu'"):
        p.evaluate({"m": 1})
    # superset assignments are fine
    assert p.evaluate({"m": 1, "mu": 2, "unused": 7}) == 3
    # and a bound value must be exact
    with pytest.raises(TypeError, match="exact scalar, got float"):
        p.evaluate({"m": 1.5, "mu": 1})
    with pytest.raises(TypeError, match="exact scalar, got str"):
        p.evaluate({"m": 1, "mu": "1/2"})
    # and a variable needs a name to be bound by
    with pytest.raises(ValueError, match="empty variable name"):
        V("")


def test_eval_equals_a_fraction_sum_of_its_terms():
    # evaluate sums in integers; the reference sums each term as Fractions.
    # Points mix ints (negative and zero too) with non-integer Fractions,
    # and the draws include the zero polynomial and constants.
    rng = random.Random(3517)
    variables = ("m", "n", "lambda", "mu")
    shapes = {"zero": 0, "constant": 0, "other": 0}
    for _ in range(300):
        p = _random_poly(rng)
        shapes["zero" if p.is_zero() else "constant" if p.is_constant() else "other"] += 1
        point = {
            var: rng.choice([rng.randint(-7, 7), Fraction(rng.randint(-12, 12), rng.randint(2, 7))])
            for var in variables
        }
        expected = Fraction(0)
        for mono, coeff in p.term_items():
            term = Fraction(coeff)
            for var, exp in mono:
                term *= Fraction(point[var]) ** exp
            expected += term
        value = p.evaluate(point)
        assert type(value) is Fraction and value == expected
    assert C(Fraction(-5, 6)).evaluate({}) == Fraction(-5, 6)
    assert all(shapes.values()), shapes


def test_is_zero_cancellation():
    m, n = V("m"), V("n")
    assert ((m - n) + (n - m)).is_zero()
    assert (m * n - n * m).is_zero()
    assert not (m - n).is_zero()
    assert IndexPolynomial().is_zero()


def test_ring_homomorphism_random():
    rng = random.Random(4127)
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        sigma = _random_assignment(rng)
        assert (p + q).evaluate(sigma) == p.evaluate(sigma) + q.evaluate(sigma)
        assert (p * q).evaluate(sigma) == p.evaluate(sigma) * q.evaluate(sigma)
        assert (p - q).evaluate(sigma) == p.evaluate(sigma) - q.evaluate(sigma)


def test_is_zero_implies_zero_everywhere():
    rng = random.Random(915)
    p = _random_poly(rng)
    q = _random_poly(rng)
    witness = (p + q) * (p - q) - (p * p - q * q)  # zero by ring axioms
    assert witness.is_zero()
    for _ in range(20):
        sigma = _random_assignment(rng)
        assert witness.evaluate(sigma) == 0


def test_commutativity_associativity_random():
    rng = random.Random(77)
    for _ in range(40):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_substitute():
    p = V("m") * V("m") - V("n")
    q = substitute(p, {"m": V("n") + C(1)})
    # (n+1)^2 - n = n^2 + n + 1
    assert q == V("n") * V("n") + V("n") + C(1)
    assert substitute(p, {"m": Fraction(3)}) == C(9) - V("n")


def test_constant_predicates():
    assert C(Fraction(5, 2)).is_constant()
    assert C(Fraction(5, 2)).constant_value() == Fraction(5, 2)
    assert not (V("m") + C(1)).is_constant()
    with pytest.raises(ValueError):
        (V("m")).constant_value()


def test_division_only_by_nonzero_constants():
    p = V("m") + C(2)
    assert p / 2 == V("m") / 2 + C(1)
    with pytest.raises(ZeroDivisionError):
        p / 0
    with pytest.raises(ValueError):
        p / V("m")


def test_pow_and_negation():
    m = V("m")
    assert power(m + C(1), 2) == m * m + 2 * m + C(1)
    assert power(m + C(1), 0) == C(1)
    assert -(m - C(3)) == C(3) - m


def test_no_stored_zero_terms():
    p = V("m") - V("m")
    assert not p.term_items()
    q = 0 * V("n")
    assert not q.term_items()


def test_sorted_terms_graded_lex_deterministic():
    p = V("m") * V("n") + V("m") + C(1) + V("n") * V("n") * V("n")
    terms = p.sorted_terms()
    degrees = [sum(e for _, e in mono) for mono, _ in terms]
    # graded order, leading term first: higher total degree before lower
    assert degrees == sorted(degrees, reverse=True)
    assert terms == p.sorted_terms()


def test_to_text_reparses():
    rng = random.Random(5150)
    for _ in range(50):
        p = _random_poly(rng)
        text = p.to_text(("m", "n", "lambda", "mu"))
        parser = _Parser(text)
        assert parser.parse_expr(frozenset(("m", "n", "lambda", "mu"))) == p
        assert parser.peek().kind == "eof" and not parser.diagnostics


def test_hash_consistent_with_eq():
    a = V("m") + V("n") * 2
    b = 2 * V("n") + V("m")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1

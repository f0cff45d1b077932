"""Exact Q(i) root extraction."""

import random
from fractions import Fraction

import pytest

from weyrlab.errors import ZeroPolynomialError
from weyrlab.gaussian_roots import gaussian_rational_roots
from weyrlab.polynomials import Polynomial
from weyrlab.scalars import gr


def reconstruct(roots, residual):
    p = residual
    for r, m in roots:
        p = p * Polynomial.linear_root(r) ** m
    return p


def test_factored_quadratic():
    roots, residual = gaussian_rational_roots(Polynomial.from_coeffs([-1, 0, 1]))
    assert roots == ((gr(-1), 1), (gr(1), 1))
    assert residual == Polynomial.one()


def test_imaginary_pair_roots_verify_to_zero():
    p = Polynomial.from_coeffs([1, 0, 1])
    roots, residual = gaussian_rational_roots(p)
    assert {r for r, _ in roots} == {gr(0, 1), gr(0, -1)}
    assert residual == Polynomial.one()
    for r, _ in roots:
        assert p.evaluate(r).is_zero


def test_irrational_content_stays_in_residual():
    p = Polynomial.from_coeffs([-2, 0, 1])
    roots, residual = gaussian_rational_roots(p)
    assert roots == ()
    assert residual == p


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        gaussian_rational_roots(Polynomial.zero())


def test_multiplicities_and_zero_root():
    # x^2 (x - 1/2)^3 (x^2 + 1)
    p = (
        Polynomial.from_coeffs([0, 0, 1])
        * Polynomial.linear_root(gr(Fraction(1, 2))) ** 3
        * Polynomial.from_coeffs([1, 0, 1])
    )
    roots, residual = gaussian_rational_roots(p)
    as_dict = {str(r): m for r, m in roots}
    assert as_dict == {"0": 2, "1/2": 3, "0-1*i": 1, "0+1*i": 1}
    assert residual == Polynomial.one()
    assert reconstruct(roots, residual) == p


def test_gaussian_integer_roots_beyond_candidate_grid():
    # roots 97 and 5+7i need lifting past the first residue modulus
    p = Polynomial.linear_root(gr(97)) * Polynomial.linear_root(gr(5, 7)) * Polynomial.from_coeffs([-2, 0, 1])
    roots, residual = gaussian_rational_roots(p)
    assert {str(r) for r, _ in roots} == {"97", "5+7*i"}
    assert residual == Polynomial.from_coeffs([-2, 0, 1])
    assert reconstruct(roots, residual) == p


def test_rational_roots_with_denominators():
    # leading coefficient forces denominator candidates: (3x - 2)(2x + 5i)
    p = Polynomial.from_coeffs([gr(-2), gr(3)]) * Polynomial.from_coeffs([gr(0, 5), gr(2)])
    roots, residual = gaussian_rational_roots(p)
    assert {str(r) for r, _ in roots} == {"2/3", "0-5/2*i"}
    assert reconstruct(roots, residual) == p


def test_product_property_on_random_polynomials():
    rng = random.Random(29)
    for _ in range(80):
        coeffs = [gr(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(rng.randint(1, 6))]
        p = Polynomial.from_coeffs(coeffs)
        if p.is_zero:
            continue
        roots, residual = gaussian_rational_roots(p)
        assert reconstruct(roots, residual) == p
        for r, _ in roots:
            assert p.evaluate(r).is_zero
        if not residual.is_constant:
            again, _ = gaussian_rational_roots(residual)
            assert again == ()


def test_residual_keeps_leading_scale():
    p = Polynomial.from_coeffs([0, 0, 0, 5])  # 5 x^3
    roots, residual = gaussian_rational_roots(p)
    assert roots == ((gr(0), 3),)
    assert residual == Polynomial.constant(gr(5))



def _lin(re, im=0):
    return Polynomial.linear_root(gr(re, im))


# Each case reaches one branch of the inert-prime search; the value is the
# set of primes p = 3 (mod 4) its square-free factors are lifted from.
CROSS_CHECK_CASES = {
    # denominators 21 and 441: 3 and 7 divide the leading coefficient
    "lead_divisible_by_3_and_7": (
        _lin(Fraction(1, 21)) * _lin(Fraction(2, 21), Fraction(1, 21)) ** 2 * Polynomial.from_coeffs([-2, 0, 1]),
        {11},
    ),
    # 1 = 4 (mod 3) and 1 = 8 (mod 7): a root mod p is not simple there
    "roots_congruent_mod_3_and_7": (
        (_lin(1) * _lin(4) * _lin(8)) ** 2 * Polynomial.from_coeffs([1, 0, 1]),
        {3, 11},
    ),
    # (2+i)(2x - 1 - i)((1+i)x^3 - 2): with denominators cleared, its square-free
    # part is 2x^4 - (1+i)x^3 - (2-2i)x + 2, whose content is 1+i
    "gaussian_content": (
        Polynomial.from_coeffs([gr(-1, -1), gr(2)]).scale(gr(2, 1))
        * Polynomial.from_coeffs([gr(-2), gr(0), gr(0), gr(1, 1)]),
        {7},
    ),
    # |c * r| is about 10^30, so the root is lifted modulo 3^(2^7)
    "several_lifting_steps": (
        _lin(Fraction(10**30, 3 * 10**20 + 1), Fraction(7, 3 * 10**20 + 1)) * _lin(-5, 2),
        {3},
    ),
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_CASES))
def test_roots_match_sympy_gaussian_factorization(name, monkeypatch):
    sympy = pytest.importorskip("sympy")
    import weyrlab.gaussian_roots as gaussian_roots

    p, expected_primes = CROSS_CHECK_CASES[name]
    primes = []
    real_lift = gaussian_roots._lift

    def recording_lift(coeffs, deriv, r, p_, bound):
        primes.append(p_)
        return real_lift(coeffs, deriv, r, p_, bound)

    monkeypatch.setattr(gaussian_roots, "_lift", recording_lift)
    roots, residual = gaussian_rational_roots(p)
    assert set(primes) == expected_primes
    assert reconstruct(roots, residual) == p

    x = sympy.Symbol("x")

    def to_sympy(c):
        return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )

    expr = sum(to_sympy(c) * x**k for k, c in enumerate(p.coeffs))
    expected = set()
    for factor, mult in sympy.factor_list(expr, x, gaussian=True)[1]:
        coeffs = sympy.Poly(factor, x).all_coeffs()
        if len(coeffs) == 2:
            r = -coeffs[1] / coeffs[0]
            re, im = sympy.re(r), sympy.im(r)
            expected.add((gr(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))), mult))
    assert set(roots) == expected

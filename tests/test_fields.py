"""Exact scalar arithmetic over Q and prime fields."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.errors import FieldMismatchError, UnsupportedFieldError
from postlie.fields import GF, QQ, Field, Mod, is_prime


def test_is_prime_small_values():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, -3])
def test_gf_rejects_nonprimes(bad):
    with pytest.raises(UnsupportedFieldError):
        GF(bad)


def test_mod_arithmetic_basics():
    F = GF(7)
    a = F.scalar(3)
    b = F.scalar(5)
    assert a + b == F.scalar(1)
    assert a - b == F.scalar(5)
    assert a * b == F.scalar(1)
    assert a / b == a * F.scalar(3)  # 5 * 3 = 15 = 1 mod 7
    assert -a == F.scalar(4)
    assert a ** 6 == F.one  # Fermat
    assert bool(F.zero) is False and bool(a) is True


def test_mod_mixes_with_ints():
    F = GF(11)
    a = F.scalar(4)
    assert a + 9 == F.scalar(2)
    assert 9 + a == F.scalar(2)
    assert 2 - a == F.scalar(9)
    assert a == 4 and 4 == a
    assert hash(a) == hash(F.scalar(15))


def test_division_by_zero_rejected():
    F = GF(5)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_rational_scalars_are_fractions():
    x = QQ.scalar(Fraction(3, 4))
    assert isinstance(x, Fraction) and x == Fraction(3, 4)
    assert QQ.scalar(2) == 2
    assert QQ.characteristic == 0 and QQ.is_rational


def test_fraction_into_prime_field():
    F = GF(5)
    # 1/2 = 3 mod 5
    assert F.scalar(Fraction(1, 2)) == F.scalar(3)
    with pytest.raises(UnsupportedFieldError):
        F.scalar(Fraction(1, 5))
    with pytest.raises(UnsupportedFieldError):
        F.scalar(Fraction(3, 10))


@pytest.mark.parametrize("bad", [True, False, None, 1.5])
def test_scalar_rejects_non_numbers(bad):
    with pytest.raises(TypeError):
        QQ.scalar(bad)


def test_scalar_accepts_canonical_strings():
    assert QQ.scalar("3") == 3
    assert QQ.scalar("-9/2") == Fraction(-9, 2)
    assert GF(7).scalar("3/4") == GF(7).scalar(6)
    with pytest.raises(ValueError):
        QQ.scalar("nope")


def test_parse_and_format_round_trip():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == -2
    F = GF(7)
    assert F.parse("3/4") == F.scalar(3) / F.scalar(4)
    assert F.parse(F.format(F.scalar(5))) == F.scalar(5)
    assert QQ.parse(QQ.format(Fraction(-9, 2))) == Fraction(-9, 2)
    with pytest.raises(ValueError):
        QQ.parse("three")
    with pytest.raises(UnsupportedFieldError):
        GF(5).parse("1/5")  # denominator divisible by the characteristic


def test_field_identity_and_names():
    assert GF(5) == GF(5) and GF(5) != GF(7) and GF(5) != QQ
    assert QQ.name == "Q"
    assert GF(13).name == "Fp:13"
    assert len({QQ, GF(5), GF(5), GF(7)}) == 3


def test_field_axioms_sampled():
    rng = random.Random(20240817)
    F = GF(97)
    for _ in range(200):
        a, b, c = (F.scalar(rng.randrange(97)) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        if b != F.zero:
            assert (a / b) * b == a


def test_mod_repr_is_plain():
    assert str(Mod(3, 7)) == "3"
    assert Mod(-2, 7) == Mod(5, 7)


def test_mixed_moduli_raise_on_either_side():
    a, b = Mod(3, 5), Mod(3, 7)
    for x, y in ((a, b), (b, a)):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(FieldMismatchError):
                op(x, y)
    with pytest.raises(FieldMismatchError):
        a + GF(7).one


def test_mod_int_interop_is_unchanged():
    a = GF(7).scalar(5)
    assert (a + 4, 4 + a, a - 6, 6 - a, a * 3, 3 * a) == tuple(
        Mod(v, 7) for v in (2, 2, 6, 1, 1, 1))
    assert a == 5 and 5 == a and a == 12 and a != 4
    assert -a == 2 and a / 3 == 4 and 3 / a == 2
    with pytest.raises(TypeError):
        a + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * a
    assert (a == "5") is False


def test_field_constants_are_shared_and_arithmetic_makes_new_scalars():
    F = GF(5)
    zero, one = F.zero, F.one
    assert F.zero is zero and F.one is one
    assert zero == 0 and one == 1 and QQ.zero == 0 and QQ.one == 1
    results = [zero + zero, zero - zero, zero * one, one * one, -zero,
               zero + 0, 1 * one]
    assert all(r is not zero and r is not one for r in results)
    assert (zero.a, one.a) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 65521]), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6))
def test_mod_ops_agree_with_ints(p, x, y):
    a, b = Mod(x, p), Mod(y, p)
    for op in (operator.add, operator.sub, operator.mul):
        expect = op(x, y) % p
        for got in (op(a, b), op(a, y), op(x, b)):
            assert type(got) is Mod and (got.a, got.p) == (expect, p)
    assert (a == b) is (x % p == y % p)
    assert (a == y) is (x % p == y % p)

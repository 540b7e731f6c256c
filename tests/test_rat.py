from fractions import Fraction

import sepkit
from sepkit.rat import (
    Rat,
    rat,
    rat_str,
    sqrt_decimal_str,
)
from tests.conftest import rat_decimal_str


def test_parse_forms():
    assert rat("3") == 3
    assert rat("-0.25") == Rat(-1, 4)
    assert rat("1/3") == Rat(1, 3)
    assert rat(" 1 / 3 ") == Rat(1, 3)
    assert type(rat("-0.25")) is Fraction
    assert rat(7) == 7
    assert rat(Rat(2, 4)) == Rat(1, 2)


def test_rat_module_not_shadowed():
    """The package root does not re-export the function `rat`, so the
    submodule sepkit.rat is reachable in both import forms."""
    import sepkit.rat as r
    from sepkit.rat import rat as parse

    assert r.RatT is Fraction and r.rat is parse
    assert sepkit.rat is r
    assert parse("1/3") == Fraction(1, 3)


def test_rat_str():
    assert rat_str(Rat(4, 2)) == "2"
    assert rat_str(Rat(-7, 2)) == "-7/2"


def test_decimal_str():
    assert rat_decimal_str(Rat(1, 4)) == "0.25"
    assert rat_decimal_str(Rat(-3, 8)) == "-0.375"
    assert rat_decimal_str(Rat(1, 3)) == "1/3"
    assert rat_decimal_str(Rat(5)) == "5"


def test_sqrt_decimal_12_sig():
    assert sqrt_decimal_str(Rat(2)) == "1.41421356237"
    assert sqrt_decimal_str(Rat(1, 4)) == "0.500000000000"
    assert sqrt_decimal_str(Rat(0)) == "0"
    assert sqrt_decimal_str(Rat(100)) == "10.0000000000"
    # tiny and huge values keep 12 significant digits
    assert sqrt_decimal_str(Rat(1, 10**12)) == "0.00000100000000000"
    assert sqrt_decimal_str(Rat(10**13)).startswith("3162277.66017")


def test_sqrt_decimal_round_half_even():
    # sqrt((1.000000000005/1)^2) ties exactly at the 12-digit boundary
    v = Rat(10**12 + 5, 10**12) ** 2
    assert sqrt_decimal_str(v, sig=12) == "1.00000000000"  # ties-to-even: stays
    v = Rat(10**12 + 15, 10**12) ** 2
    assert sqrt_decimal_str(v, sig=12) == "1.00000000002"


def test_sqrt_matches_float(rng):
    for _ in range(200):
        n = rng.randint(1, 10**6)
        d = rng.randint(1, 10**6)
        s = sqrt_decimal_str(Rat(n, d))
        assert abs(float(s) - (n / d) ** 0.5) <= 1e-9 * max(1.0, (n / d) ** 0.5)

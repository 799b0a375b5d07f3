import operator
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lietensor import build_tensor_square, catalog, presentation_of
from lietensor.catalog import CATALOG_SUITE, is_supported
from lietensor.errors import NotNilpotentError, OutsideEnvelopeError
from lietensor.fields import (GF, MAX_MODULUS, QQ, Field, Integer, _rational,
                              field_from_descriptor, is_prime)

from support import presentation_quotient


def test_prime_check():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)


def test_rational_scalars_are_canonical():
    x = QQ.parse("-4/6")
    assert QQ.to_str(x) == "-2/3"
    assert x == QQ.parse("-2/3")
    assert QQ.to_str(QQ.parse("3")) == "3"
    assert QQ.parse("3/2") + QQ.parse("1/2") == QQ.scalar(2)


def test_rational_parse_rejects_junk():
    for bad in ("1.5", "a", "1/0", "2/-3", "", "\u0661", "\uff11\uff12",
                "\u0663/\u0664", "1/\u0664", "\u0663/4"):
        with pytest.raises(ValueError):
            QQ.parse(bad)
        with pytest.raises(ValueError):
            GF(5).parse(bad)


def test_residue_arithmetic():
    f = GF(5)
    two, three = f.scalar(2), f.scalar(3)
    assert two + three == f.zero
    assert two * three == f.one
    assert two / three == f.scalar(4)
    assert -two == three
    assert f.to_str(f.scalar(7)) == "2"
    assert f.parse("-1") == f.scalar(4)
    assert bool(f.zero) is False and bool(f.one) is True


def test_residue_powers_are_reduced():
    # ** used to fall through to int.__pow__: 3 ** 2 was the plain int 9.
    f = GF(5)
    three = f.scalar(3)
    assert type(three ** 2) is type(three) and three ** 2 == 4
    assert three ** -1 == f.scalar(2) and type(three ** -1) is type(three)
    assert three ** -2 == f.scalar(4) and three ** 0 == f.one
    with pytest.raises(ValueError):
        f.zero ** -1


def test_residue_mixed_int_arithmetic():
    f = GF(7)
    x = f.scalar(3)
    assert 1 + x == f.scalar(4)
    assert sum([x, x, x], f.zero) == f.scalar(2)


def test_scalars_of_an_evicted_residue_class_still_compare_hash_and_print():
    # The cache of residue classes is bounded: building the classes of as
    # many other moduli as it holds evicts GF(13)'s, and GF(13) then gets a
    # fresh class.  Scalars of the old and the new class must still be
    # interchangeable, as the old ones live on in cached algebras.  Run in
    # a fresh interpreter, since the eviction would hand the other tests new
    # classes for the moduli they share with the cached algebras.
    probe = """
from lietensor.fields import GF, _residue_class, is_prime
f = GF(13)
old = [f.scalar(v) for v in range(-3, 16)]
old_zero, old_one = f.zero, f.one
size = _residue_class.cache_info().maxsize
for p in [p for p in range(17, 1000) if is_prime(p)][:size]:
    GF(p).scalar(1)
new = [GF(13).scalar(v) for v in range(-3, 16)]
assert type(new[0]) is not type(old[0])
assert old == new and set(old) == set(new)
assert [hash(x) for x in old] == [hash(x) for x in new]
assert [(repr(x), str(x), f.to_str(x)) for x in old] == \\
    [(repr(x), str(x), f.to_str(x)) for x in new]
assert {x: i for i, x in enumerate(old)} == {x: i for i, x in enumerate(new)}
for x, y in zip(old, new[3:]):
    assert x + y == y + x == GF(13).scalar(int(x) + int(y))
    assert x * y == y * x and x - y == -(y - x)
    if y:
        assert x / y * y == x
assert old_zero == GF(13).zero and old_one == GF(13).one
print("evicted-ok")
"""
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "evicted-ok" in result.stdout


def test_field_descriptors():
    assert QQ.descriptor() == "Q"
    assert GF(5).descriptor() == {"Fp": 5}
    assert field_from_descriptor("Q") == QQ
    assert field_from_descriptor({"Fp": 3}) == GF(3)
    with pytest.raises(ValueError):
        field_from_descriptor({"Fp": 6})
    with pytest.raises(ValueError):
        field_from_descriptor("R")


def test_fraction_fallback_without_gmpy2():
    # The whole stack must still work on the stdlib Fraction backend.
    probe = """
import sys

class BlockGmpy2:
    def find_module(self, name, path=None):
        return self if name == "gmpy2" else None
    def load_module(self, name):
        raise ImportError("gmpy2 blocked for this test")

sys.meta_path.insert(0, BlockGmpy2())
from lietensor.fields import QQ, _rational
assert _rational.__module__ == "fractions", _rational
assert QQ.to_str(QQ.parse("-4/6")) == "-2/3"
from lietensor import build_tensor_square, heisenberg
T = build_tensor_square(heisenberg(1))
assert T.dim == 6 and T.square_submodule.dim == 3
print("fallback-ok")
"""
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "fallback-ok" in result.stdout


def test_is_prime_is_deterministic_miller_rabin():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == \
        [n for n in range(3000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to the first bases
    for composite in (561, 2047, 1373653, 25326001, 3215031751,
                      3825123056546413051, 318665857834031151167461):
        assert not is_prime(composite), composite
    for prime in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert is_prime(prime), prime
    # sympy as an independent oracle on large odd numbers near primes
    rng = random.Random(61)
    for _ in range(200):
        n = sympy.prevprime(rng.randrange(2 ** 40, MAX_MODULUS))
        for m in (n, n + 2, n * 3, n - 2):
            if m <= MAX_MODULUS:
                assert is_prime(m) == sympy.isprime(m), m
    # The largest modulus the thirteen bases still decide, and the first
    # strong pseudoprime to all of them just above it.
    assert MAX_MODULUS + 1 == 3317044064679887385961981
    with pytest.raises(ValueError, match="outside the supported envelope"):
        is_prime(MAX_MODULUS + 1)
    with pytest.raises(ValueError, match="outside the supported envelope"):
        Field(2 ** 89 - 1)
    with pytest.raises(ValueError):
        field_from_descriptor({"Fp": True})


# ----------------------------------------------------------------------
# The scalar contract, against Fraction and plain % p arithmetic
# ----------------------------------------------------------------------

_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
_EXPONENTS = st.integers(-3, 3)


def _q_operand():
    """An Integer, a canonical non-integral _rational, or a raw _rational
    that may be integral (mixed operations leave those in stored forms)."""
    num, den = st.integers(-60, 60), st.integers(1, 12)
    return st.one_of(num.map(QQ.scalar),
                     st.builds(lambda n, d: QQ.parse(f"{n}/{d}"), num, den),
                     st.builds(_rational, num, den))


def _outcome(op, *args):
    try:
        return op(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _is_canonical(x):
    return type(x) is Integer if x.denominator == 1 else type(x) is _rational


def _check_q(result, expected, canonical):
    if isinstance(expected, type):
        assert result is expected
        return
    assert type(result) in (Integer, _rational), type(result)
    assert result == expected and expected == result
    if canonical:
        assert _is_canonical(result), (result, type(result))


@settings(max_examples=300, deadline=None)
@given(_q_operand(), _q_operand(), st.integers(-60, 60), _EXPONENTS)
def test_rational_scalars_are_exact_by_type(x, y, k, e):
    fx, fy = Fraction(x), Fraction(y)
    for op in _BINARY:
        result = _outcome(op, x, y)
        # Integer's own operators give canonical values; a _rational on the
        # left keeps its own operator.
        _check_q(result, _outcome(op, fx, fy), canonical=type(x) is Integer
                 and (op is operator.truediv or type(y) is Integer))
        if type(x) is Integer and type(y) is Integer and \
                op is not operator.truediv:
            assert type(result) is Integer
        # plain ints on either side, the reflected operators included
        _check_q(_outcome(op, k, y), _outcome(op, Fraction(k), fy),
                 canonical=type(y) is Integer)
        _check_q(_outcome(op, x, k), _outcome(op, fx, Fraction(k)),
                 canonical=type(x) is Integer)
    _check_q(-x, -fx, canonical=type(x) is Integer)
    _check_q(_outcome(operator.pow, x, e), _outcome(operator.pow, fx, e),
             canonical=type(x) is Integer)
    if type(x) is Integer:
        assert type(-x) is Integer
        if abs(x) <= 3:  # a plain int raised to an Integer
            _check_q(_outcome(operator.pow, k, x),
                     _outcome(operator.pow, Fraction(k), fx), canonical=True)
    if fx.denominator == 1:
        assert x == fx and fx == x and hash(x) == hash(fx)
        assert str(x) == str(fx) == QQ.to_str(x)


def test_rational_parse_and_scalar_are_canonical():
    for text, value in (("3", 3), ("-6/2", -3), ("0/5", 0), ("+7/1", 7)):
        x = QQ.parse(text)
        assert type(x) is Integer and x == value
    assert type(QQ.parse("1/2")) is _rational
    assert type(QQ.scalar(4)) is Integer and type(QQ.one) is Integer
    assert type(QQ.zero) is Integer and not QQ.zero
    with pytest.raises(TypeError):
        QQ.scalar(2) ** QQ.parse("1/2")


def _largest_prime_in_envelope():
    p = MAX_MODULUS
    while not is_prime(p):
        p -= 1
    return p


_GF_MODULI = (2, 3, 5, _largest_prime_in_envelope())


def _reference(op, a, b, p):
    """op on the integers a, b, reduced mod p; division by an inverse."""
    if op is operator.truediv:
        return _outcome(lambda: a * pow(b, -1, p) % p)
    return op(a, b) % p


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_GF_MODULI), st.integers(-10 ** 30, 10 ** 30),
       st.integers(-10 ** 30, 10 ** 30), _EXPONENTS, st.booleans())
def test_residue_arithmetic_matches_plain_mod_p(p, a, b, e, small):
    if small:
        a, b = a % 7 - 3, b % 7 - 3  # zero and small negatives often
    f = GF(p)
    x, y = f.scalar(a), f.scalar(b)
    residue = type(x)

    def check(result, expected):
        if isinstance(expected, type):
            assert result is expected
        else:
            assert type(result) is residue and 0 <= result < p
            assert int(result) == expected

    for op in _BINARY:
        check(_outcome(op, x, y), _reference(op, a, b, p))
        # plain ints on either side, the reflected operators included
        check(_outcome(op, a, y), _reference(op, a, b, p))
        check(_outcome(op, x, b), _reference(op, a, b, p))
    check(-x, -a % p)
    check(_outcome(operator.pow, x, e), _outcome(pow, a, e, p))
    assert x == a % p and hash(x) == hash(a % p) and str(x) == str(a % p)


def test_stored_forms_hold_exact_scalars():
    # Every scalar an algebra over Q stores is an Integer or a _rational:
    # never a float, and never a plain int that escaped the scalar layer.
    def scalars_of_cells(L):
        return [c for row in L.cells for cell in row.values()
                for c in cell.values()]

    def check(values, where):
        bad = [x for x in values if type(x) not in (Integer, _rational)]
        assert not bad, (where, bad[:3], type(bad[0]))

    for name in CATALOG_SUITE:
        if not is_supported(name, QQ):
            continue
        L = catalog(name, QQ)
        T = build_tensor_square(L)
        check(scalars_of_cells(L), (name, "L.cells"))
        check(scalars_of_cells(T.algebra), (name, "T.algebra.cells"))
        check([x for row in T.relation_space.sparse_rows
               for x in row.values()], (name, "T.relation_space"))
        try:
            P = presentation_of(L)
        except (NotNilpotentError, OutsideEnvelopeError):
            continue
        G, _ = presentation_quotient(P)
        check(scalars_of_cells(G), (name, "presentation quotient"))

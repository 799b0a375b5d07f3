import random
import subprocess
import sys

import pytest
import sympy

from lietensor.fields import (GF, MAX_MODULUS, QQ, Field, field_from_descriptor,
                              is_prime)


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

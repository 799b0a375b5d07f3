"""Shared test helpers: independent oracles and random generators.

The sympy-based routines here deliberately do not go through the package's
own elimination code, so they can serve as independent cross-checks for
ranks and kernels over the rationals.
"""

from __future__ import annotations

import random

import sympy

from lietensor import QQ, Field, LieAlgebra, ideal_closure, quotient_algebra
from lietensor.freenilp import free_nilpotent


def to_sympy(x) -> sympy.Rational:
    return sympy.Rational(int(x.numerator), int(x.denominator))


def sympy_rank(rows, cols: int) -> int:
    if not rows:
        return 0
    m = sympy.Matrix([[to_sympy(x) for x in row] for row in rows])
    return m.rank()


def sympy_nullity(rows, cols: int) -> int:
    return cols - sympy_rank(rows, cols)


def tensor_relation_vectors(L: LieAlgebra) -> list[list]:
    """Straight re-expansion of the two crossed tensor relations on basis
    triples, independent of the package's construction path."""
    n = L.dim
    zero = L.field.zero
    sc = L.table
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = [zero] * (n * n)
                for a in range(n):
                    v[a * n + k] += sc[i][j][a]
                for b in range(n):
                    v[i * n + b] -= sc[j][k][b]
                for b in range(n):
                    v[j * n + b] += sc[i][k][b]
                out.append(v)
                w = [zero] * (n * n)
                for b in range(n):
                    w[i * n + b] += sc[j][k][b]
                for a in range(n):
                    w[a * n + j] -= sc[k][i][a]
                for a in range(n):
                    w[a * n + k] += sc[j][i][a]
                out.append(w)
    return [v for v in out if any(v)]


def corrupted_tables(L: LieAlgebra):
    """Every copy of L with one structure constant shifted by one, together
    with the position (i, j, k) of the shifted constant."""
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                table = [[list(cell) for cell in row] for row in L.table]
                table[i][j][k] += L.field.one
                yield (i, j, k), LieAlgebra(
                    L.field, L.dim,
                    tuple(tuple(tuple(cell) for cell in row) for row in table),
                    L.basis_names)


def random_vector(rng: random.Random, field: Field, n: int, span: int = 2):
    return tuple(field.scalar(rng.randint(-span, span)) for _ in range(n))


def random_matrix_rows(rng: random.Random, field: Field, rows: int, cols: int,
                       span: int = 3):
    return [[field.scalar(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)]


def random_nilpotent_quotient(rng: random.Random, d: int, c: int,
                              field: Field = QQ) -> LieAlgebra:
    """Quotient of the free nilpotent algebra on (d, c) by a random
    homogeneous ideal with seeds in degree >= 2.

    Seed coefficients are drawn from {-2,-1,1,2} before reduction into the
    field, so over GF(2) a seed can collapse to zero and the quotient can be
    the whole free algebra; that degenerate draw is deliberate coverage."""
    F = free_nilpotent(d, c, field)
    n = F.algebra.dim
    layers = {}
    for i, deg in enumerate(F.degrees):
        layers.setdefault(deg, []).append(i)
    seeds = []
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(2, c) if c >= 2 else 2
        positions = layers.get(degree, [])
        if not positions:
            continue
        v = [field.zero] * n
        chosen = rng.sample(positions, min(len(positions), rng.randint(1, 3)))
        for i in chosen:
            v[i] = field.scalar(rng.choice([-2, -1, 1, 2]))
        seeds.append(v)
    ideal = ideal_closure(F.algebra, seeds)
    quotient, _ = quotient_algebra(F.algebra, ideal)
    return quotient

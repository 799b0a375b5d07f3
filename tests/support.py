"""Shared test helpers: independent oracles and random generators.

The sympy-based routines here deliberately do not go through the package's
own elimination code, so they can serve as independent cross-checks for
ranks and kernels over the rationals.
"""

from __future__ import annotations

import random
from itertools import combinations

import sympy
from hypothesis import strategies as st

from lietensor import (GF, QQ, BilinearMap, Field, LieAlgebra, Verdict,
                       catalog, direct_sum, ideal_closure,
                       lie_algebra_from_brackets, lie_algebra_from_table,
                       quotient_algebra)
from lietensor.catalog import MAX_AMBIENT, is_supported
from lietensor.errors import TheoremViolationError
from lietensor.freenilp import dimension_exceeds, free_nilpotent
from lietensor import linalg
from lietensor.linalg import (Matrix, Subspace, _transpose, combine, dense,
                              sparse, subspace_intersect, subspace_sum)
from lietensor.presentation import _check_isomorphism


# ----------------------------------------------------------------------
# dense constructors: tuples in, stored sparse forms out
# ----------------------------------------------------------------------

def span(field: Field, ambient_dim: int, vectors) -> Subspace:
    """The span of dense vectors, each of width ambient_dim."""
    vectors = list(vectors)
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError("ambient mismatch")
    return linalg.span(field, ambient_dim, map(sparse, vectors))


def matrix_from_rows(field: Field, rows, cols=None) -> Matrix:
    """The matrix with these dense rows, of cols entries each."""
    rows = list(rows)
    cols = len(rows[0]) if cols is None else cols
    return Matrix(field, len(rows), cols,
                  _transpose([sparse(r) for r in rows], cols))


def linear_map(field: Field, target_dim: int, images) -> Matrix:
    """The linear map sending x_i to the dense vector images[i]."""
    return Matrix(field, target_dim, len(images),
                  tuple(sparse(im) for im in images))


def bilinear_from_table(field: Field, source_dim: int, target_dim: int,
                        table) -> BilinearMap:
    """The bilinear map with the dense table[i][j] as its cells."""
    return BilinearMap(field, source_dim, target_dim,
                       tuple(tuple(sparse(cell) for cell in row)
                             for row in table))


def column(m: Matrix, j: int):
    return dense(m.sparse_columns[j], m.rows, m.field.zero)


def contains(space: Subspace, v) -> bool:
    return not space.reduce_sparse(sparse(v))


def solve(m: Matrix, rhs):
    """One solution x of m x = rhs with the free variables 0, or None: the
    echelon rows of [m | rhs] have a pivot in the last column exactly when
    there is none."""
    rows = [tuple(r) + (y,) for r, y in zip(m.entries, rhs)]
    space = span(m.field, m.cols + 1, rows)
    if m.cols in space.pivots:
        return None
    x = [m.field.zero] * m.cols
    for p, row in zip(space.pivots, space.sparse_rows):
        x[p] = row.get(m.cols, m.field.zero)
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """The rows of [m | I] reduce to [I | m^-1] exactly when m is
    invertible; the tail rows are read back as columns."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    space = linalg.span(m.field, 2 * n, (
        {**row, n + i: m.field.one}
        for i, row in enumerate(_transpose(m.sparse_columns, n))))
    if space.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    tail = [{j - n: x for j, x in row.items() if j >= n}
            for row in space.sparse_rows]
    return Matrix(m.field, n, n, _transpose(tail, n))


class Subalgebra:
    """A bracket-closed subspace of L realized as an algebra in its own
    coordinates (the pivot coordinates of the canonical basis)."""

    def __init__(self, parent: LieAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise ValueError("ambient mismatch")
        self.space = space
        self._pivot_row = {p: r for r, p in enumerate(space.pivots)}
        basis = space.sparse_rows
        k = space.dim
        cells = tuple(
            {j: cell for j, v in enumerate(basis)
             if (cell := self.coords_sparse(parent.bracket_sparse(u, v)))}
            for u in basis)
        names = tuple(f"s{c + 1}" for c in range(k))
        self.algebra = LieAlgebra(parent.field, k, cells, names)

    def coords_sparse(self, v):
        """Coordinates of a member in the canonical basis: for an RREF basis
        these are just its pivot-column entries.  Membership is verified by
        checking the residual."""
        if self.space.reduce_sparse(v):
            raise ValueError("vector does not lie in the subalgebra")
        return {self._pivot_row[col]: x for col, x in v.items()
                if col in self._pivot_row}


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


def symmetric_derived_vectors(L: LieAlgebra) -> list[list]:
    """u (x) u and u (x) w + w (x) u for the nonzero brackets u, w of basis
    vectors, as dense vectors: they span the symmetric tensors on the
    derived subalgebra, which the construction imposes on a basis of it."""
    n = L.dim
    zero = L.field.zero
    brackets = [L.table[i][j] for i in range(n) for j in range(i + 1, n)
                if any(L.table[i][j])]
    out = []
    for a, u in enumerate(brackets):
        for w in brackets[a:]:
            v = [zero] * (n * n)
            for x in range(n):
                for y in range(n):
                    v[x * n + y] += u[x] * w[y]
                    if w is not u:
                        v[x * n + y] += w[x] * u[y]
            out.append(v)
    return [v for v in out if any(v)]


def dense_residual(space: Subspace, v) -> list:
    """v minus its pivot coordinates times the canonical basis rows; one
    pass in pivot order suffices, because each row is 0 at the other
    pivots."""
    v = list(v)
    for row, p in zip(space.basis.entries, space.pivots):
        f = v[p]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return v


def reduced_bracket_cells(T) -> tuple[dict, ...]:
    """The cells of the tensor square's bracket by reduction: for free
    columns a = i*n+j and b = k*n+l of the relation space, the residual of
    [x_i, x_j] (x) [x_k, x_l] modulo it, re-indexed to the free columns."""
    L, space = T.base, T.relation_space
    n = L.dim
    index = {c: r for r, c in enumerate(space.free_cols)}
    brackets = [L.cells[a // n].get(a % n, {}) for a in space.free_cols]
    cells = []
    for u in brackets:
        row = {}
        for b, w in zip(space.free_cols, brackets):
            residual = space.reduce_sparse(
                {x * n + y: ux * wy for x, ux in u.items()
                 for y, wy in w.items()})
            if residual:
                row[index[b]] = {index[c]: x for c, x in residual.items()}
        cells.append(row)
    return tuple(cells)


def corrupted_tables(L: LieAlgebra):
    """Every copy of L with one structure constant shifted by one, together
    with the position (i, j, k) of the shifted constant."""
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                table = [[list(cell) for cell in row] for row in L.table]
                table[i][j][k] += L.field.one
                yield (i, j, k), lie_algebra_from_table(
                    L.field, table, L.basis_names)


def corrupted_alternating_tables(L: LieAlgebra):
    """Every copy of L with one structure constant (i, j, k), i < j, shifted
    by one and its mirror (j, i, k) by minus one: the bracket stays
    alternating, and only the Jacobi identity can break."""
    for i, j in combinations(range(L.dim), 2):
        for k in range(L.dim):
            table = [[list(cell) for cell in row] for row in L.table]
            table[i][j][k] += L.field.one
            table[j][i][k] -= L.field.one
            yield (i, j, k), lie_algebra_from_table(
                L.field, table, L.basis_names)


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


def random_semidirect(rng: random.Random, m: int,
                      field: Field = QQ) -> LieAlgebra:
    """V x| <t> with V abelian of dimension m and [t, v] = D v for a random
    m x m matrix D: solvable, and nilpotent exactly when D is."""
    D = random_matrix_rows(rng, field, m, m, span=2)
    return lie_algebra_from_brackets(field, m + 1, {
        (i, m): [(k, -D[k][i]) for k in range(m)] for i in range(m)})


@st.composite
def valid_algebras(draw):
    """Lie algebras valid by construction over Q, GF(2), GF(3) or GF(5):
    free nilpotent quotients, catalog entries, semidirect products
    V x| <D> (solvable and, for most D, not nilpotent) and direct sums of
    two of them."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def part():
        kind = draw(st.sampled_from(["quotient", "semidirect", "catalog"]))
        if kind == "quotient":
            d, c = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]))
            return random_nilpotent_quotient(rng, d, c, field)
        if kind == "semidirect":
            return random_semidirect(rng, draw(st.integers(1, 4)), field)
        names = [name for name in ("heisenberg(1)", "abelian(2)", "sl2",
                                   "heisenberg(1)+abelian(1)")
                 if is_supported(name, field)]
        return catalog(draw(st.sampled_from(names)), field)

    L = part()
    return direct_sum(L, part()) if draw(st.booleans()) else L


# ----------------------------------------------------------------------
# dense reference oracles: the plain loops the sparse kernels replaced
# ----------------------------------------------------------------------

def dense_bilinear(table, field, target_dim, u, v):
    """sum_{i,j} u_i v_j table[i][j], entry by entry."""
    acc = [field.zero] * target_dim
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    for k, c in enumerate(table[i][j]):
                        acc[k] = acc[k] + ui * vj * c
    return tuple(acc)


def dense_bracket(L: LieAlgebra, u, v):
    return dense_bilinear(L.table, L.field, L.dim, u, v)


def dense_apply(matrix, v):
    """Matrix times column vector, row by row, over the nonzero entries of
    the vector."""
    terms = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in terms), matrix.field.zero)
                 for row in matrix.entries)


def basis(L: LieAlgebra):
    return [tuple(L.field.one if j == i else L.field.zero
                  for j in range(L.dim)) for i in range(L.dim)]


def dense_is_lie_pairing(rho: BilinearMap, L: LieAlgebra,
                         H: LieAlgebra) -> Verdict:
    """The three pairing axioms instance by instance on dense vectors, in the
    order (l, l', s) for (i) and (ii), then (l, s, l', s') for (iii)."""
    n = L.dim
    e = basis(L)
    sc = L.table

    def apply(u, v):
        return dense_bilinear(rho.table, rho.field, rho.target_dim, u, v)

    for l in range(n):
        for lp in range(n):
            for s in range(n):
                lhs = apply(sc[l][lp], e[s])
                rhs = tuple(x - y for x, y in zip(apply(e[l], sc[lp][s]),
                                                  apply(e[lp], sc[l][s])))
                if lhs != rhs:
                    return Verdict(False, witness=("axiom-i", (l, lp, s)))
                lhs2 = apply(e[l], sc[lp][s])
                rhs2 = tuple(x - y for x, y in zip(apply(sc[s][l], e[lp]),
                                                   apply(sc[lp][l], e[s])))
                if lhs2 != rhs2:
                    return Verdict(False, witness=("axiom-ii", (l, lp, s)))
    for l in range(n):
        for s in range(n):
            for lp in range(n):
                for sp in range(n):
                    lhs = apply(sc[l][s], sc[lp][sp])
                    rhs = tuple(-x for x in dense_bracket(
                        H, apply(e[s], e[l]), apply(e[lp], e[sp])))
                    if lhs != rhs:
                        return Verdict(False, witness=("axiom-iii", (l, s, lp, sp)))
    return Verdict(True)


def corrupted_pairings(rho: BilinearMap):
    """Every copy of rho with one table entry shifted by one, together with
    the position (i, j, k) of the shifted entry."""
    for i in range(rho.source_dim):
        for j in range(rho.source_dim):
            for k in range(rho.target_dim):
                table = [[list(cell) for cell in row] for row in rho.table]
                table[i][j][k] += rho.field.one
                yield (i, j, k), bilinear_from_table(
                    rho.field, rho.source_dim, rho.target_dim, table)


def dense_subalgebra_table(parent: LieAlgebra, space: Subspace):
    """Coordinates of every bracket of two basis rows in the canonical
    basis (the pivot entries), after checking by rank that the bracket lies
    in the span; raises ValueError otherwise."""
    rows = space.basis.entries
    table = []
    for a in rows:
        row = []
        for b in rows:
            w = dense_bracket(parent, a, b)
            grown = span(parent.field, parent.dim, list(rows) + [w])
            if grown.dim != space.dim:
                raise ValueError("vector does not lie in the subalgebra")
            row.append(tuple(w[p] for p in space.pivots))
        table.append(tuple(row))
    return tuple(table)


def dense_validate(L: LieAlgebra) -> Verdict:
    """validate() by plain loops over every basis pair and triple: the
    antisymmetry failures (i <= j) and Jacobi failures (i < j < k) as the
    witness, and a detail naming them."""
    n = L.dim
    e = basis(L)
    anti = [(i, j) for i in range(n) for j in range(i, n)
            if (any(L.table[i][i]) if i == j else
                tuple(-x for x in L.table[j][i]) != tuple(L.table[i][j]))]
    zero = (L.field.zero,) * n
    jacobi = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (dense_bracket(L, L.table[i][j], e[k]),
                         dense_bracket(L, L.table[j][k], e[i]),
                         dense_bracket(L, L.table[k][i], e[j]))
                if tuple(map(lambda *xs: sum(xs, L.field.zero), *terms)) != zero:
                    jacobi.append((i, j, k))
    parts = []
    if anti:
        parts.append(f"antisymmetry fails at {anti}")
    if jacobi:
        parts.append(f"Jacobi fails at {jacobi}")
    return Verdict(not parts, "; ".join(parts) or "valid",
                   (tuple(anti), tuple(jacobi)))


def dense_homomorphism_failure(images, source: LieAlgebra, target: LieAlgebra):
    """First (i, j) in row-major order with f[x_i, x_j] != [f x_i, f x_j]."""
    def f(v):
        acc = [target.field.zero] * target.dim
        for k, c in enumerate(v):
            for t, x in enumerate(images[k]):
                acc[t] = acc[t] + c * x
        return tuple(acc)

    for i in range(source.dim):
        for j in range(source.dim):
            if f(source.table[i][j]) != dense_bracket(target, images[i], images[j]):
                return i, j
    return None


def dense_decomposition_verdict(T) -> Verdict:
    """verify_decomposition's ideal check on dense vectors (the intersection
    and sum checks go through the package's elimination as before)."""
    sq, comp, alg = T.square_submodule, T._complement, T.algebra
    if subspace_intersect(comp, sq).dim != 0:
        return Verdict(False, "complement meets the square submodule")
    if subspace_sum(comp, sq).dim != T.dim:
        return Verdict(False, "complement + square submodule is not everything")
    for row in comp.basis.entries:
        if not all(contains(comp, dense_bracket(alg, row, x)) for x in basis(alg)):
            return Verdict(False, "complement is not an ideal")
    return Verdict(True, f"{T.dim} = {sq.dim} + {comp.dim}")


def dense_restriction_verdict(T) -> Verdict:
    """That the projection onto the exterior square maps the complement
    bijectively and homomorphically, by rank and over every ordered pair
    of complement rows: the two checks verify_decomposition derives from
    its others."""
    comp, alg = T._complement, T.algebra
    ext, proj = T.exterior_square()
    images = [dense_apply(proj, row) for row in comp.basis.entries]
    if span(alg.field, ext.dim, images).dim != comp.dim \
            or comp.dim != ext.dim:
        return Verdict(False, "complement does not map bijectively onto the exterior square")
    for ra, pa in zip(comp.basis.entries, images):
        for rb, pb in zip(comp.basis.entries, images):
            if dense_apply(proj, dense_bracket(alg, ra, rb)) \
                    != dense_bracket(ext, pa, pb):
                return Verdict(False, "restriction to the complement is not a homomorphism")
    return Verdict(True)


# ----------------------------------------------------------------------
# presentation oracles: the generic constructions the presentation engine
# replaced by reading F' and R /\ F' off the Hall grading, and the cover
# F/[R,F] that the exterior-square cover replaced
# ----------------------------------------------------------------------

def complement_within(inner: Subspace, outer: Subspace) -> Subspace:
    """Canonical complement of `inner` inside `outer` (echelon rule).

    Requires inner to be contained in outer; takes the rows of outer's RREF
    basis whose pivots are not pivots of inner.  Leading coordinates of such
    combinations avoid inner's pivot set, so the span meets inner trivially.
    """
    if not outer.contains_space(inner):
        raise ValueError("inner subspace not contained in outer")
    skip = set(inner.pivots)
    # The kept rows are still 1 at their own pivot and 0 at the others.
    kept = [(p, r) for p, r in zip(outer.pivots, outer.sparse_rows)
            if p not in skip]
    return Subspace(outer.field, outer.ambient_dim,
                    tuple(p for p, _ in kept), tuple(r for _, r in kept))


def all_columns_commutator(F: LieAlgebra, relations: Subspace) -> Subspace:
    """[R, F] as the span of the brackets [r, x_j] over every basis vector
    x_j of F, not only the generators, and every row r of R, the top layer
    included; ad_sparse is held to the dense bracket in
    test_sparse_kernels."""
    return linalg.span(F.field, F.dim, (
        w for r in relations.sparse_rows for w in F.ad_sparse(r)))


def zassenhaus_relations_in_derived(P) -> Subspace:
    """R /\\ F' by the Zassenhaus intersection."""
    return subspace_intersect(P.relations, P.free.algebra.derived_subalgebra())


def coords_space(sub: Subalgebra, space: Subspace) -> Subspace:
    """A subspace of sub's parent lying in sub, in sub's coordinates."""
    return linalg.span(space.field, sub.space.dim,
                       map(sub.coords_sparse, space.sparse_rows))


def subalgebra_exterior(P):
    """F'/[R,F] as the Subalgebra F' of F divided by [R,F] in its own
    coordinates, with the multiplier image of R /\\ F' in the quotient."""
    F = P.free.algebra
    derived = Subalgebra(F, F.derived_subalgebra())
    algebra, projection = quotient_algebra(
        derived.algebra, coords_space(derived, P.relations_commutator))
    multiplier = projection.image_of(
        coords_space(derived, zassenhaus_relations_in_derived(P)))
    return algebra, multiplier


def complement_cover(P):
    """The cover as F/[R,F] divided by the canonical complement of the image
    of R /\\ F' inside the image of R: (algebra, from_free, multiplier,
    onto)."""
    F = P.free.algebra
    in_derived = zassenhaus_relations_in_derived(P)
    G, to_G = quotient_algebra(F, P.relations_commutator)
    extra = complement_within(to_G.image_of(in_derived),
                              to_G.image_of(P.relations))
    K, to_K = quotient_algebra(G, extra)
    from_free = to_K.mul(to_G)
    g_free = P.relations_commutator.free_cols
    onto = P.onto.select_columns([g_free[c] for c in extra.free_cols])
    return K, from_free, from_free.image_of(in_derived), onto


def presentation_quotient(P):
    """G = F/[R,F] with the projection onto it, an oracle for the
    presentation engine, which builds only F'/[R,F]; quotient_algebra
    checks that [R,F] is an ideal."""
    return quotient_algebra(P.free.algebra, P.relations_commutator)


def free_cover(P):
    """The cover as G = F/[R,F] itself, the construction the exterior-square
    cover replaced: (algebra, from_free, multiplier, onto).  onto is read as
    columns of the presentation map, since F -> G sends the unit vector at
    its r-th free column to the r-th unit vector, and is checked to factor
    the presentation map."""
    G, from_free = presentation_quotient(P)
    onto = P.onto.select_columns(P.relations_commutator.free_cols)
    if onto.mul(from_free) != P.onto:
        raise ValueError("cover projection does not factor the presentation")
    return G, from_free, from_free.image_of(P.relations), onto


def generator_map(P, cover) -> Matrix:
    """G = F/[R,F] -> C induced by F -> C, which sends the generators of F
    to C's first d basis vectors and each Hall bracket to the bracket of
    the images of its factors (they come earlier, the words being ordered
    by degree); checked to kill [R,F]."""
    F, C = P.free, cover.algebra
    images = [{g: C.field.one} for g in range(F.d)]
    for u, v in F.factors[F.d:]:
        images.append(C.bracket_sparse(images[u], images[v]))
    to_C = Matrix(C.field, C.dim, len(images), tuple(images))
    if to_C.image_of(P.relations_commutator).dim:
        raise ValueError("F -> C does not kill [R,F]")
    return to_C.select_columns(P.relations_commutator.free_cols)


def subalgebra_cover_theorem(cover, tensor):
    """The cover theorem by re-derivation, for any cover (algebra C, onto
    pi): C' found by elimination and realized as a Subalgebra, and the
    theorem map C' -> L /\\ L, [x_a, x_b] -> the wedge class of
    pi(x_a) (x) pi(x_b), solved for from the brackets of C's basis.  Its
    graph is the span of the vectors (coordinates of [x_a, x_b], image),
    with pivots 0..k-1 exactly when the map is well defined; the map is
    then checked to be an isomorphism.  Returns the verdict and the map,
    which is None when the verdict fails."""
    C = cover.algebra
    wedge_alg, to_wedge = tensor.exterior_square()
    try:
        derived = Subalgebra(C, C.derived_subalgebra())
        k = derived.algebra.dim
        if k != wedge_alg.dim:
            return Verdict(False, f"dims differ: cover derived {k}, "
                                  f"exterior {wedge_alg.dim}"), None
        pi, wedge_cols = cover.onto.sparse_columns, to_wedge.sparse_columns
        def graph_vector(a, b):
            image = combine(tensor.pairing.apply_sparse(pi[a], pi[b]).items(),
                            wedge_cols)
            return {**derived.coords_sparse(C.cells[a][b]),
                    **{k + t: x for t, x in image.items()}}

        graph = linalg.span(C.field, k + wedge_alg.dim, (
            graph_vector(a, b) for a in range(C.dim)
            for b in range(a + 1, C.dim) if b in C.cells[a]))
        if graph.pivots != tuple(range(k)):
            return Verdict(False, "the theorem map is not well defined"), None
        theorem_map = Matrix(C.field, wedge_alg.dim, k, tuple(
            {t - k: x for t, x in row.items() if t >= k}
            for row in graph.sparse_rows))
        _check_isomorphism(theorem_map, derived.algebra, wedge_alg)
    except (TheoremViolationError, ValueError) as exc:
        return Verdict(False, str(exc)), None
    return Verdict(True, f"cover derived dim {k} = exterior dim "
                         f"{wedge_alg.dim}"), theorem_map


# ----------------------------------------------------------------------
# the free associative model: the construction the Hall rewriting replaced,
# kept as the oracle for the free nilpotent structure constants
# ----------------------------------------------------------------------

def hall_expansions(factors, c: int) -> list[dict[tuple, int]]:
    """Integer expansions of the Hall words with these factors (as returned
    by hall_words) in the free associative algebra, truncated above degree
    c: one {monomial: coefficient} per word, in basis order."""
    expansions: list[dict[tuple, int]] = []
    for i, f in enumerate(factors):
        expansions.append({(i,): 1} if f is None else associative_commutator(
            expansions[f[0]], expansions[f[1]], c))
    return expansions


def associative_commutator(a: dict, b: dict, c: int) -> dict[tuple, int]:
    """ab - ba for noncommutative polynomials, truncated above degree c."""
    out: dict[tuple, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if len(ka) + len(kb) > c:
                continue
            key = ka + kb
            out[key] = out.get(key, 0) + va * vb
            key = kb + ka
            out[key] = out.get(key, 0) - va * vb
    return {k: v for k, v in out.items() if v}


def free_envelope() -> list[tuple[int, int]]:
    """Every (d, c) with d >= 2 whose free nilpotent algebra lies inside the
    design envelope, dim F(d, c) <= MAX_AMBIENT."""
    pairs = []
    for d in range(2, MAX_AMBIENT + 1):
        c = 1
        while not dimension_exceeds(d, c, MAX_AMBIENT):
            pairs.append((d, c))
            c += 1
    return pairs

"""Linear algebra over prime fields: invariant subspaces and function-space chains.

Every subspace is built in one place, `_insert`, which adds a row to a
reduced echelon basis held as a dict {pivot column: row}. Because the basis
is reduced, each pivot column is zero outside its own row, so a new row's
entries at the pivots are its coefficients: it is reduced only at the pivots
where it is nonzero, normalized, and its lead column is cleared from the
other rows (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 7). `FpSubspace.basis` lists the rows by ascending pivot;
reduced echelon form is unique per subspace, so equal subspaces always
compare equal basis-by-basis.
"""

from __future__ import annotations

import itertools
import operator

from .core import (
    FrozenRecord,
    Group,
    GroupAction,
    Subgroup,
    extend_along_cayley_graph,
    is_prime,
    set_field,
)
from .errors import DimensionTooLarge, NotAnAction, PropositionViolated
from .matgroups import (
    ResidueRing,
    mat_identity,
    mat_mod,
    mat_mul,
    unitriangular_group,
)
from .series import derived_series, generalized_derived_series

VECTOR_ENUM_CAP = 2 ** 20
SET_SIZE_CAP = 4096


def _reduce(p, basis, row):
    """The remainder of row mod p after reduction by the basis {pivot: row}."""
    r = row
    for c, x in [(c, x) for c in basis if (x := row[c] % p)]:
        r = [a - x * b for a, b in zip(r, basis[c])]
    return [x % p for x in r]


def _insert(p, basis, row):
    """Add row's remainder to the reduced echelon basis {pivot: row}.

    Returns the new basis row, or None when row lies in the span already.
    """
    r = _reduce(p, basis, row)
    first = next(filter(None, r), 0)
    if not first:
        return None
    lead = r.index(first)
    if first != 1:
        inv = pow(first, -1, p)
        r = [x * inv % p for x in r]
    for c, b in basis.items():
        x = b[lead]
        if x:
            basis[c] = [(a - x * y) % p for a, y in zip(b, r)]
    basis[lead] = r
    return r


def _canonical(basis):
    return tuple(tuple(basis[c]) for c in sorted(basis))


def rref(p, rows):
    """Reduced row-echelon form over F_p; returns a tuple of nonzero rows.

    The output is the canonical basis of the span: pivots are 1, strictly
    increasing, alone in their column.
    """
    basis = {}
    for r in rows:
        _insert(p, basis, r)
    return _canonical(basis)


class FpSubspace(FrozenRecord):
    """Subspace of F_p^k in canonical reduced-echelon basis."""
    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p, ambient_dim, basis):
        set_field(self, "p", p)
        set_field(self, "ambient_dim", ambient_dim)
        set_field(self, "basis", basis)

    @staticmethod
    def from_vectors(p, ambient_dim, vectors):
        return FpSubspace(p, ambient_dim, rref(p, vectors))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        return len(rref(self.p, (*self.basis, vec))) == self.dim

    def contains_space(self, other):
        return all(self.contains(b) for b in other.basis)


def _mat_vec(p, vec, mat):
    """Row vector times matrix, mod p (vectors act on the right)."""
    k = len(vec)
    return tuple(sum(vec[i] * mat[i][j] for i in range(k)) % p
                 for j in range(k))


class LinearAction:
    """Right matrix action of a finite group on F_p^dim.

    Matrices are supplied for the actor's generators and extended along the
    Cayley graph; every re-encounter is compared, which validates the
    representation property on all pairs.
    """

    def __init__(self, actor, p, dim, gen_matrices):
        self.actor = actor
        self.p = p
        self.dim = dim
        gens = actor.generators
        if len(gen_matrices) != len(gens):
            raise NotAnAction("one matrix per actor generator required")
        norm = []
        for M in gen_matrices:
            M = mat_mod(M, p)
            if len(M) != dim or any(len(r) != dim for r in M):
                raise NotAnAction(f"matrices must be {dim}x{dim}")
            if len(rref(p, M)) != dim:
                raise NotAnAction("generator matrix is singular")
            norm.append(M)
        ring = ResidueRing(p)
        mats = extend_along_cayley_graph(
            actor, norm, lambda A, B: mat_mul(ring, A, B), mat_identity(dim))
        if mats is None:
            raise NotAnAction("matrices do not define a representation")
        self.matrices = tuple(mats)

    def matrix(self, i):
        return self.matrices[i]

    def apply_vec(self, vec, i):
        return _mat_vec(self.p, vec, self.matrices[i])

    def is_trivial(self):
        ident = self.matrices[0]
        return all(M == ident for M in self.matrices)


def vector_group(p, dim):
    """The additive group F_p^dim with tuple values."""
    if p ** dim > VECTOR_ENUM_CAP:
        raise DimensionTooLarge(f"p^dim = {p ** dim} exceeds cap")
    values = [tuple(reversed(v))
              for v in itertools.product(range(p), repeat=dim)]

    def vmul(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def vinv(a):
        return tuple((-x) % p for x in a)

    G = Group(values, vmul, vinv, lambda v: "(" + ",".join(map(str, v)) + ")",
              name=f"F{p}^{dim}", kind="vector")
    G.generators = [G.index_of(tuple(int(j == i) for j in range(dim)))
                    for i in range(dim)]
    return G


def as_group_action(act: LinearAction):
    """Wrap a LinearAction as a GroupAction on the vector group F_p^dim."""
    V = vector_group(act.p, act.dim)

    def apply(a_idx, g_idx):
        return V.index_of(act.apply_vec(V.value(a_idx), g_idx))

    return GroupAction(act.actor, V, apply)


def invariant_span(act, vectors):
    """Smallest act-invariant subspace containing the given vectors.

    One basis grows: every row added to it is moved by each generator and
    inserted in turn, so the rows added span an invariant subspace.
    """
    p = act.p
    gens = [act.matrices[g] for g in act.actor.generators]
    basis = {}
    frontier = list(vectors)
    while frontier:
        added = [r for r in (_insert(p, basis, v) for v in frontier)
                 if r is not None]
        frontier = [_mat_vec(p, r, M) for r in added for M in gens]
    return FpSubspace(p, act.dim, _canonical(basis))


def is_irreducible(act):
    """Exhaustive test: every nonzero vector must generate the whole space."""
    p, dim = act.p, act.dim
    if dim < 1:
        raise DimensionTooLarge("dimension must be at least 1")
    total = p ** dim
    if total > VECTOR_ENUM_CAP:
        raise DimensionTooLarge(
            f"{total} vectors exceed cap {VECTOR_ENUM_CAP}")
    if dim == 1:
        return True
    vectors = itertools.product(range(p), repeat=dim)
    for v in itertools.islice(vectors, 1, None):
        if invariant_span(act, [v]).dim < dim:
            return False
    return True


def coinvariant_span(act):
    """Span of {a^s - a} over all vectors a and all actor elements s.

    Linearity in a reduces this to the row spaces of (M_s - I); the result is
    checked to be invariant, and equals the full space exactly when the
    action is nontrivial and irreducible.
    """
    p, dim = act.p, act.dim
    if p ** dim > VECTOR_ENUM_CAP:
        raise DimensionTooLarge("vector cap exceeded")
    basis = {}
    for M in act.matrices:
        for i in range(dim):
            _insert(p, basis, [M[i][j] - (i == j) for j in range(dim)])
    for b in basis.values():
        for g in act.actor.generators:
            if any(_reduce(p, basis, act.apply_vec(b, g))):
                raise PropositionViolated("coinvariant span is not invariant")
    return FpSubspace(p, dim, _canonical(basis))


# -- finite right G-sets ----------------------------------------------------------


class GSet:
    """Finite right G-set; the action is validated along the Cayley graph."""

    def __init__(self, group, size, gen_images, labels=None):
        self.group = group
        self.size = size
        gens = group.generators
        if len(gen_images) != len(gens):
            raise NotAnAction("one point permutation per group generator")
        for img in gen_images:
            if sorted(img) != list(range(size)):
                raise NotAnAction("generator image is not a permutation")
        # right action: x.(ug) = (x.u).g
        perms = extend_along_cayley_graph(
            group, gen_images,
            lambda pu, pg: tuple(map(pg.__getitem__, pu)), tuple(range(size)))
        if perms is None:
            raise NotAnAction("images do not define an action")
        self._perms = perms
        self.labels = tuple(labels) if labels else tuple(
            str(i) for i in range(size))

    def apply(self, point, g):
        return self._perms[g][point]

    def orbit(self, point, subgroup: Subgroup):
        return sorted({self._perms[h][point] for h in subgroup.members})


def coset_space(G, H: Subgroup):
    """Right cosets H\\G as a right G-set; the coset of the identity is first."""
    n = G.order
    rep_of = [-1] * n
    reps = []
    for i in range(n):
        if rep_of[i] == -1:
            reps.append(i)
            for h in H.members:
                rep_of[G.mul(h, i)] = i
    pos = {r: k for k, r in enumerate(reps)}
    gen_images = []
    for g in G.generators:
        gen_images.append(tuple(pos[rep_of[G.mul(r, g)]] for r in reps))
    labels = [G.label(r) for r in reps]
    return GSet(G, len(reps), gen_images, labels=labels)


def v_chain(G, X: GSet, p, depth):
    """Chain V_0 >= V_1 >= ... of subspaces of F_p^X.

    V_0 is the full function space; V_{i+1} is spanned by f - f^g with f in
    V_i and g in the i-th term of the generalized derived series, where
    f^g(x) = f(x.g). Basis vectors of V_i and generators of the series term
    suffice: the defining set is linear in f, and f - f^w telescopes over a
    word w = g.w' as (f - f^{w'}) + (f'' - f''^g) with f'' = f^{w'} in V_i,
    since each V_i is stable under the whole group. ValueError unless p is
    a prime: over Z/p for a composite p the rows span no vector space.
    """
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if X.group is not G:
        raise NotAnAction("X must be a G-set for the given G")
    if X.size > SET_SIZE_CAP:
        raise DimensionTooLarge(f"|X| = {X.size} exceeds cap {SET_SIZE_CAP}")
    series = generalized_derived_series(G)
    chain = [FpSubspace(p, X.size, mat_identity(X.size))]
    for i in range(depth):
        perms = [X._perms[g] for g in series.term(i).gens()]
        chain.append(FpSubspace.from_vectors(p, X.size, (
            list(map(operator.sub, f, map(f.__getitem__, perm)))
            for f in chain[-1].basis for perm in perms)))
    return chain


def orbit_hypothesis(G, X: GSet, m):
    """True iff some point has an orbit under G^(m) larger than 2^m."""
    series = generalized_derived_series(G)
    term = series.term(m)
    bound = 2 ** m
    return any(len(X.orbit(x, term)) > bound for x in range(X.size))


def unipotent_derived_length(n, p):
    """Derived length of the unitriangular group U(n,p); always <= n-1."""
    U = unitriangular_group(n, p)
    rep = derived_series(U)
    if not rep.terminates:
        raise PropositionViolated("unitriangular group must be solvable")
    if rep.length > n - 1:
        raise PropositionViolated(
            f"derived length {rep.length} exceeds {n - 1}")
    return rep.length

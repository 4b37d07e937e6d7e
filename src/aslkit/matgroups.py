"""Matrix groups over small finite fields and residue rings Z/l^k.

Field elements are canonical integers 0..q-1 encoding polynomial coefficients
base p (little-endian) modulo x^e + t, for the least integer t (encoded the
same way) whose quotient ring has no zero divisors: that is the
lexicographically smallest monic irreducible of degree e. GF(q) is built from
its addition table and its multiplication-by-x table alone. Residue-ring
elements are plain representatives 0..m-1. Matrix labels are bit-exact
row-major entry lists, so reports are diffable.
"""

from __future__ import annotations

import itertools
import math

from .core import (
    CLOSURE_CAP,
    Subgroup,
    Homomorphism,
    Record,
    center,
    check_order,
    commutator_subgroup,
    factorize,
    generate_group,
    identity_hom,
    is_isomorphic,
    local_quotient,
    quotient,
    subgroup_derived,
    trivial_subgroup,
)
from .errors import (
    CapExceeded,
    NotAFieldElement,
    NotInvertible,
    NotNormal,
    PropositionViolated,
    SearchFailed,
    UnknownConstructor,
    UsageError,
)
from .families import alternating_group
from .normal import all_normal_subgroups, simple_factor_orders
from .series import abelian_simple_length

FIELD_SIZE_CAP = 64


def prime_power(q):
    """(p, e) with q = p^e, or None when q is not a prime power."""
    fac = factorize(q)
    return next(iter(fac.items())) if len(fac) == 1 else None


class PrimePowerField:
    """GF(q) for q = p^e with table-based arithmetic (q <= FIELD_SIZE_CAP).

    An element is the integer whose base-p digits, least significant first,
    are its coefficients at 1, x, ..., x^(e-1). The modulus is x^e + t for
    the least integer t, read as a polynomial the same way, whose quotient
    ring has no zero divisors. F_p[x]/(f) is a domain iff f is irreducible,
    so this is the lexicographically smallest monic irreducible of degree e;
    for a prime field it is x itself.
    """

    def __init__(self, q):
        if q > FIELD_SIZE_CAP:
            raise CapExceeded(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
        pe = prime_power(q)
        if pe is None:
            raise UnknownConstructor(f"{q} is not a prime power")
        p, e = pe
        self.p, self.e, self.size = p, e, q
        self.name = f"F{q}"
        # digit-wise sums: the low digits add mod p, the rest recursively
        add = [list(range(q))]
        for a in range(1, q):
            add.append([(a + b) % p + p * add[a // p][b // p]
                        for b in range(q)])
        neg = [row.index(0) for row in add]
        top = q // p
        for t in range(q):
            # multiplication by x shifts the digits up and folds the top
            # digit back in through x^e = -t
            xt = []
            for a in range(q):
                xt.append(a * p if a < top else add[xt[a - top]][neg[t]])
            # a*b = a*(b-1) + a, or x * (a*(b/p)) when p divides b
            mul = []
            for a in range(q):
                row = [0]
                for b in range(1, q):
                    row.append(xt[row[b // p]] if b % p == 0
                               else add[row[b - 1]][a])
                mul.append(row)
            if all(0 not in row[1:] for row in mul[1:]):
                break
        self._add, self._neg, self._mul = add, neg, mul
        self._inv = [None] + [row.index(1) for row in mul[1:]]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        r = self._inv[a]
        if r is None:
            raise NotInvertible(f"{a} has no inverse in {self.name}")
        return r

    def is_unit(self, a):
        return a != 0

    def element(self, x):
        """The integer x as an element: reduced mod p in a prime field, where
        that is a ring map, and refused outside 0..q-1 when e > 1."""
        if self.e == 1:
            return x % self.p
        if not 0 <= x < self.size:
            raise NotAFieldElement(f"entry {x} is not an element of "
                                   f"{self.name}; use 0..{self.size - 1}")
        return x

    def multiplicative_generator(self):
        return next(g for g in range(1, self.size)
                    if _unit_order(self, g) == self.size - 1)

    def additive_basis(self):
        """F_p-basis 1, x, x^2, ... as canonical integers."""
        return [self.p ** t for t in range(self.e)]


class ResidueRing:
    """Z/m with canonical representatives 0..m-1."""

    def __init__(self, m):
        self.size = m
        self.name = f"Z{m}"

    def add(self, a, b):
        return (a + b) % self.size

    def sub(self, a, b):
        return (a - b) % self.size

    def mul(self, a, b):
        return (a * b) % self.size

    def is_unit(self, a):
        return math.gcd(a, self.size) == 1

    def element(self, x):
        """The integer x reduced mod m, a ring map."""
        return x % self.size

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible(f"{a} is not a unit mod {self.size}")
        return pow(a, -1, self.size)

    def unit_group_generators(self):
        """Generators of (Z/m)^* for m = prime power."""
        m = self.size
        (ell, k), = factorize(m).items()
        if m <= 2:
            return []
        if ell == 2:
            if k == 2:
                return [3]
            return [m - 1, 5]
        phi = m // ell * (ell - 1)
        return [next(g for g in range(2, m)
                     if self.is_unit(g) and _unit_order(self, g) == phi)]

    def additive_basis(self):
        return [1]


def _unit_order(ring, g):
    """Multiplicative order of the unit g of ring."""
    x, n = g, 1
    while x != 1:
        x = ring.mul(x, g)
        n += 1
    return n


# -- matrix helpers --------------------------------------------------------------


def mat_identity(n):
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def elementary_matrix(n, i, j, a):
    """The n x n identity matrix with entry (i, j) set to a."""
    M = [list(row) for row in mat_identity(n)]
    M[i][j] = a
    return tuple(map(tuple, M))


def mat_mul(ring, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = ring.add(acc, ring.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_mod(A, m):
    """A with every entry reduced mod m."""
    return tuple(tuple(x % m for x in row) for row in A)


def mat_inv(ring, A):
    """Inverse over a field or a local ring; NotInvertible when singular.

    Gaussian elimination with unit-pivot selection: over Z/l^k a matrix is
    invertible iff every column admits a unit pivot during elimination.
    """
    n = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if ring.is_unit(aug[r][col]):
                piv = r
                break
        if piv is None:
            raise NotInvertible("no unit pivot; matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ring.inv(aug[col][col])
        aug[col] = [ring.mul(x, inv) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [ring.sub(x, ring.mul(c, y))
                          for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_label(A):
    return "[" + ", ".join(
        "[" + ", ".join(str(x) for x in row) + "]" for row in A) + "]"


class MatrixGroupSpec(Record):
    """Dimension, ring, and generator matrices for a matrix group."""
    __slots__ = ("n", "ring", "generators")

    def __init__(self, n, ring, generators):
        self.n = n
        self.ring = ring
        self.generators = generators


def matrix_group(spec: MatrixGroupSpec, name=None, closure_cap=CLOSURE_CAP):
    """Close generator matrices under multiplication."""
    ring = spec.ring
    gens = []
    for M in spec.generators:
        M = tuple(tuple(map(ring.element, row)) for row in M)
        if len(M) != spec.n or any(len(r) != spec.n for r in M):
            raise NotInvertible(f"matrices must be {spec.n}x{spec.n}")
        mat_inv(ring, M)  # raises NotInvertible when singular
        gens.append(M)
    if name is None:
        name = f"mat({ring.name}; {len(gens)} gens)"
    G = generate_group(mat_identity(spec.n), gens,
                       lambda a, b: mat_mul(ring, a, b),
                       lambda a: mat_inv(ring, a),
                       mat_label, name, closure_cap=closure_cap,
                       kind="matrix")
    G.structure = {"n": spec.n}
    return G


def _transvection_gens(n, ring):
    gens = []
    for a in ring.additive_basis():
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens.append(elementary_matrix(n, i, j, a))
    return gens


def _diag_unit(n, u):
    # GL of dimension 0 is trivial
    return elementary_matrix(n, 0, 0, u) if n else mat_identity(0)


def _check_dimension(name, n):
    """Refuse a negative matrix dimension before anything is built."""
    if n < 0:
        raise UnknownConstructor(f"{name} needs a dimension n >= 0, got {n}")


def gl_group(n, q, closure_cap=CLOSURE_CAP):
    """GL(n, F_q) from transvections plus one diagonal unit."""
    _check_dimension("GL", n)
    F = PrimePowerField(q)
    check_order(closure_cap, f"GL({n},{q})", _gl_factors(n, q, 1))
    gens = _transvection_gens(n, F)
    if q > 2:
        gens.append(_diag_unit(n, F.multiplicative_generator()))
    spec = MatrixGroupSpec(n, F, tuple(gens))
    return matrix_group(spec, name=f"GL({n},{q})", closure_cap=closure_cap)


def sl_group(n, q, closure_cap=CLOSURE_CAP):
    """SL(n, F_q), generated by all transvections."""
    _check_dimension("SL", n)
    F = PrimePowerField(q)
    check_order(closure_cap, f"SL({n},{q})", _gl_factors(n, q, 2))
    spec = MatrixGroupSpec(n, F, tuple(_transvection_gens(n, F)))
    return matrix_group(spec, name=f"SL({n},{q})", closure_cap=closure_cap)


def unitriangular_group(n, p, closure_cap=CLOSURE_CAP):
    """Upper unitriangular U(n, p); order p^(n(n-1)/2)."""
    _check_dimension("U", n)
    F = PrimePowerField(p)  # compares p with the field cap before factoring
    if F.e != 1:
        raise UnknownConstructor(f"U({n},{p}) needs a prime")
    check_order(closure_cap, f"U({n},{p})",
                (p for _ in range(n * (n - 1) // 2)))
    gens = [elementary_matrix(n, i, i + 1, 1) for i in range(n - 1)]
    spec = MatrixGroupSpec(n, F, tuple(gens))
    G = matrix_group(spec, name=f"U({n},{p})", closure_cap=closure_cap)
    assert G.order == p ** (n * (n - 1) // 2)
    return G


def glz_group(n, ell, k, closure_cap=CLOSURE_CAP):
    """GL(n, Z/ell^k) from transvections plus diagonal unit generators."""
    _check_dimension("GLZ", n)
    if ell > closure_cap:  # before trial division; |Z/ell^k| >= ell
        raise CapExceeded(f"modulus {ell} exceeds cap {closure_cap}")
    if factorize(ell) != {ell: 1}:
        raise UnknownConstructor(f"GLZ needs a prime, got {ell}")
    if k < 1:
        raise UnknownConstructor(f"GLZ needs an exponent k >= 1, got {k}")
    check_order(closure_cap, f"GL({n}, Z/{ell}^{k})", itertools.chain(
        _gl_factors(n, ell, 1), (ell for _ in range(n * n * (k - 1)))))
    R = ResidueRing(ell ** k)
    gens = _transvection_gens(n, R)
    for u in R.unit_group_generators():
        gens.append(_diag_unit(n, u))
    spec = MatrixGroupSpec(n, R, tuple(gens))
    G = matrix_group(spec, name=f"GLZ({n},{ell},{k})",
                     closure_cap=closure_cap)
    G.structure["residue"] = (ell, k)
    assert G.order == \
        math.prod(_gl_factors(n, ell, 1)) * ell ** (n * n * (k - 1))
    return G


def _gl_factors(n, q, start):
    """The factors q^(j-1) (q^j - 1) for j = start..n, smallest first: from
    start 1 their product is |GL(n, q)|, from start 2 it is |SL(n, q)|."""
    return (q ** (j - 1) * (q ** j - 1) for j in range(start, n + 1))


def residue_map(G, closure_cap=CLOSURE_CAP):
    """Entrywise reduction GL_n(Z/l^k) -> GL_n(Z/l) as a Homomorphism."""
    info = getattr(G, "structure", None)
    if not info or "residue" not in info:
        raise UnknownConstructor("residue_map needs a GLZ-built group")
    ell, k = info["residue"]
    target = glz_group(info["n"], ell, 1, closure_cap=closure_cap)
    mapping = [target.index_of(mat_mod(G.value(i), ell))
               for i in range(G.order)]
    return Homomorphism(G, target, mapping)


def residue_kernel(n, ell, k, closure_cap=CLOSURE_CAP):
    """Kernel of GL_n(Z/l^k) -> GL_n(Z/l); order ell^(n^2 (k-1)), an ell-group."""
    G = glz_group(n, ell, k, closure_cap=closure_cap)
    if k == 1:
        return trivial_subgroup(G)
    hom = residue_map(G, closure_cap=closure_cap)
    ker = hom.kernel()
    expected = ell ** (n * n * (k - 1))
    if ker.order != expected:
        raise PropositionViolated(
            f"kernel order {ker.order}, expected {expected}")
    return ker


def is_l_group(G, ell):
    """True iff the order of G, a group or a Subgroup, is a power of ell
    (1 counts). UsageError for ell < 2, which no order is a power of."""
    if ell < 2:
        raise UsageError(f"ell must be >= 2, got {ell}")
    n = G.order
    while n % ell == 0:
        n //= ell
    return n == 1


# -- Larsen-Pink filtrations -------------------------------------------------------


class LPFiltration(Record):
    """Normal chain lambda3 <= lambda2 <= lambda1 inside a finite Lambda."""
    __slots__ = ("lambda1", "lambda2", "lambda3")

    def __init__(self, lambda1, lambda2, lambda3):
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.lambda3 = lambda3

    def orders(self):
        return (self.lambda1.order, self.lambda2.order, self.lambda3.order)


class LPValidation(Record):
    __slots__ = ("ok", "conditions", "notes")

    def __init__(self, ok, conditions, notes):
        self.ok = ok
        self.conditions = conditions
        self.notes = notes

    def __bool__(self):
        return self.ok


def _lie_type_proxy(Q, ell):
    """Proxy recognition of 'direct product of simple groups of Lie type in
    characteristic ell'.

    Accepts: the trivial group; a direct product of nonabelian finite simple
    groups each of order divisible by ell; and, for ell = 3, the degenerate
    Lie-type member PSL(2,3) (isomorphic to the alternating group on 4
    points, solvable, hence outside the simple-product route). Every
    acceptance through the proxy is flagged in the returned notes.
    """
    if Q.order == 1:
        return True, ("trivial layer",)
    if ell == 3 and Q.order == 12 and is_isomorphic(Q, alternating_group(4)):
        return True, ("proxy: degenerate Lie-type factor PSL(2,3) accepted",)
    z = center(Q)
    if z.order > 1:
        return False, ("nontrivial center",)
    der = commutator_subgroup(Q)
    if der.order != Q.order:
        return False, ("not perfect",)
    orders = simple_factor_orders(Q)
    if orders is None:
        return False, ("not a direct product of nonabelian simple groups",)
    for n in orders:
        if n % ell != 0:
            return False, (f"simple factor order {n} coprime to {ell}",)
    note = ("proxy: factors checked as nonabelian simple with order "
            f"divisible by {ell}",)
    return True, note


def validate_lp(Lam, ell, J, filt: LPFiltration):
    """Check the four filtration conditions; per-condition report included."""
    for sub in (filt.lambda1, filt.lambda2, filt.lambda3):
        if sub.parent is not Lam:
            raise NotNormal("filtration subgroups must live in Lambda")
        sub.require_normal()
    notes = []
    conditions = {}
    chain_ok = (filt.lambda3.member_set <= filt.lambda2.member_set
                and filt.lambda2.member_set <= filt.lambda1.member_set)
    conditions["chain"] = chain_ok
    conditions["index"] = Lam.order // filt.lambda1.order <= J
    if filt.lambda1 == filt.lambda2:
        conditions["lie_layer"] = True
        notes.append("lambda1 = lambda2")
    else:
        Q, _ = local_quotient(filt.lambda1, filt.lambda2)
        ok, why = _lie_type_proxy(Q, ell)
        conditions["lie_layer"] = ok
        notes.extend(why)
    der = subgroup_derived(filt.lambda2)
    abelian_ok = der.member_set <= filt.lambda3.member_set
    coprime_ok = (filt.lambda2.order // filt.lambda3.order) % ell != 0 \
        if abelian_ok else False
    conditions["abelian_layer"] = abelian_ok and coprime_ok
    conditions["l_group_layer"] = is_l_group(filt.lambda3, ell)
    ok = all(conditions.values())
    return LPValidation(ok, conditions, tuple(notes))


def search_lp(Lam, ell, J):
    """Exhaustive search over normal-lattice chains for a valid filtration.

    Deterministic choice: maximize |lambda1|, then minimize |lambda3|, then
    minimize |lambda2|; ties break on the sorted member tuples.
    """
    lat = list(all_normal_subgroups(Lam))
    by_l1 = sorted(lat, key=lambda s: (-s.order, s.members))
    by_small = sorted(lat, key=lambda s: (s.order, s.members))
    for l1 in by_l1:
        if Lam.order // l1.order > J:
            continue
        for l3 in by_small:
            if not l3.member_set <= l1.member_set:
                continue
            for l2 in by_small:
                if not (l3.member_set <= l2.member_set
                        and l2.member_set <= l1.member_set):
                    continue
                filt = LPFiltration(l1, l2, l3)
                if validate_lp(Lam, ell, J, filt).ok:
                    return filt
    return None


def corollary_decomposition(Lambda: Subgroup, ell, J):
    """Normal ell-subgroup N of Lambda with l(Lambda/N) <= log2(J) + 2.

    Lambda must sit inside a GLZ-built ambient group. N is the preimage in
    Lambda of the residue image's lambda3, which already contains
    Lambda n (residue kernel). Raises SearchFailed when no filtration exists
    under the given J.
    """
    amb = Lambda.parent
    info = getattr(amb, "structure", None)
    if not info or "residue" not in info:
        raise UnknownConstructor("Lambda must live in a GLZ-built group")
    ell_amb, k = info["residue"]
    if ell_amb != ell:
        raise UnknownConstructor(f"ambient ring has ell = {ell_amb}")
    L = Lambda.as_group()
    if k == 1:
        bar, to_bar = L, identity_hom(L)
    else:
        reduced = [mat_mod(amb.value(i), ell) for i in L.parent_indices]
        spec = MatrixGroupSpec(info["n"], ResidueRing(ell),
                               tuple(reduced[g] for g in L.generators))
        bar = matrix_group(spec, name=f"{L.name} mod {ell}")
        to_bar = Homomorphism(L, bar, list(map(bar.index_of, reduced)))
    filt = search_lp(bar, ell, J)
    if filt is None:
        raise SearchFailed(
            f"no Larsen-Pink filtration for {bar.name} with J = {J}; "
            "try a larger J")
    N = to_bar.preimage(filt.lambda3)
    N.normal = True
    if not is_l_group(N, ell):
        raise PropositionViolated("N is not an ell-group")
    Q, _ = quotient(L, N)
    length = abelian_simple_length(Q)
    bound = math.log2(J) + 2
    if length > bound + 1e-9:
        raise PropositionViolated(
            f"l(Lambda/N) = {length} exceeds log2(J) + 2 = {bound}")
    return N, length

"""Finite groups behind a uniform index-based multiplication oracle.

Elements of a group are integers 0..order-1; index 0 is always the identity.
A leaf group built from generators numbers its elements in the order in
which `ClosureBuilder`, the one closure of the package, lists them: the
identity, then coset by coset. Each group carries immutable element values
(permutation tuples, matrices, residues, index tuples, ...). Only the leaf
groups, whose values are permutations, matrices, residues or vectors,
multiply values: they find the product's index in a value dict and memoize
the products they are asked for in one dict keyed by the index pair. Groups
built from other groups multiply on indices and keep no memo: direct and
semidirect products read mixed-radix digits, induced groups multiply
digit-wise, quotients multiply coset representatives and materialized
subgroups multiply their members in the parent (the image of N in N x| H
multiplies in N), so a product costs a few products further down and the
only memos are those of the leaves (fiber products stay value-level). No
Cayley table is ever materialized: large groups touch only a small part of
theirs, so construction cost stays linear in the order.

Conventions, used consistently everywhere:
  - permutations multiply left-to-right: (p*q)(x) = q(p(x)), i.e. everything
    acts on the right;
  - semidirect products use (n1,h1)(n2,h2) = (n1^h2 * n2, h1*h2) for a right
    action of H on N by automorphisms.
"""

from __future__ import annotations

import itertools
import re
from operator import attrgetter

from .errors import (
    CapExceeded,
    MalformedCycle,
    NotAnAction,
    NotAutomorphisms,
    NotNormal,
    NotSurjective,
    UsageError,
)

CLOSURE_CAP = 100000


def check_order(cap, what, factors):
    """Raise CapExceeded once the running product of factors passes cap.

    A constructor lists the order of the group it is about to build as
    factors, smallest first, so an order far beyond the cap is refused
    before anything is built, and no huge integer is made or printed.
    """
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise CapExceeded(f"|{what}| exceeds cap {cap}")


def check_degree(cap, degree):
    """Raise CapExceeded for a permutation degree above cap, before any
    tuple of that length is made."""
    if degree > cap:
        raise CapExceeded(f"permutation degree {degree} exceeds cap {cap}")


def factorize(n):
    """{prime: exponent} of n >= 1 by trial division, primes ascending; the
    caller bounds n first."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n, cap=CLOSURE_CAP):
    """True iff n is a prime; CapExceeded above cap, before any division."""
    if n > cap:
        raise CapExceeded(f"prime candidate {n} exceeds cap {cap}")
    return n > 1 and factorize(n) == {n: 1}


# -- records ------------------------------------------------------------------


class Record:
    """Base of the package's plain records.

    A record lists its fields in `__slots__` and sets them in its own
    `__init__`. Two records are equal when they are of the same class and
    their compared fields are equal: all fields, or the names a subclass
    gives as `class R(Record, compare=(...))`. The repr is
    `Name(field=value, ...)` over all fields. A mutable record is
    unhashable.

    Records are not dataclasses: importing `dataclasses` and generating
    each class's methods through `exec` cost a one-shot CLI query more time
    than most queries' group work. Records can be weakly referenced, as
    dataclass instances can.
    """
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._key = attrgetter(*(compare or cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"


class FrozenRecord(Record):
    """A record that refuses assignment and hashes by its compared fields.
    Its `__init__` sets each field with `set_field(self, name, value)`."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key(self))


set_field = object.__setattr__


class Group:
    """A finite group given by an indexed element table and a product oracle.

    A leaf group (no `encode`) multiplies element values: `mul` and `inv`
    act on values, a dict maps each value back to its index, and the
    products asked for are memoized in `_mul_cache`. A composed group is
    built from other groups (`encode` given): `mul` and `inv` take and
    return indices, `encode` maps a value to its index, and no product is
    memoized, since each one costs a few products in the groups below.
    """

    def __init__(self, values, mul, inv, labeler, name="group",
                 generators=None, kind="table", encode=None):
        values = list(values)
        self.order = len(values)
        self._values = values
        if encode is None:
            index = {v: i for i, v in enumerate(values)}
            if len(index) != self.order:
                raise UsageError("duplicate element values")
            self._index = index
            self._encode = index.__getitem__
            self._vmul = mul
            self._compose = None
            self._iinv = lambda i: index[inv(values[i])]
        else:
            self._encode = encode
            self._compose = mul
            self._iinv = inv
        self._labeler = labeler
        self._labels = None
        self.name = name
        self.kind = kind
        self.identity = 0
        self._mul_cache = {}
        self._inv_cache = [None] * self.order
        self._cache = {}
        self._generators = None
        if generators is not None:
            self.generators = generators

    @property
    def labels(self):
        """Element labels, made on first use: most quotient and subgroup
        groups are never printed."""
        if self._labels is None:
            self._labels = tuple(map(self._labeler, self._values))
        return self._labels

    @property
    def generators(self):
        if self._generators is None:
            self._generators = greedy_generators(self, range(self.order))
        return self._generators

    @generators.setter
    def generators(self, value):
        self._generators = tuple(dict.fromkeys(g for g in value if g != 0))

    # -- oracle ------------------------------------------------------------

    def mul(self, i, j):
        compose = self._compose
        if compose is not None:
            return compose(i, j)
        key = i * self.order + j
        r = self._mul_cache.get(key)
        if r is None:
            r = self._index[self._vmul(self._values[i], self._values[j])]
            self._mul_cache[key] = r
        return r

    def product(self):
        """The raw index product (i, j) -> index, for the closures of the
        groups composed from this one, which thus pay one call per level
        and no `mul` frame: `_compose` for a composed group, and for a leaf
        a lookup in the product memo that falls back to `vmul` on a miss.
        The memo is read here, not in `__init__`, so a memo swapped in
        after construction is the one filled."""
        compose = self._compose
        if compose is not None:
            return compose
        memo = self._mul_cache
        get = memo.get
        order, index, values, vmul = \
            self.order, self._index, self._values, self._vmul

        def product(i, j):
            key = i * order + j
            r = get(key)
            if r is None:
                r = index[vmul(values[i], values[j])]
                memo[key] = r
            return r

        return product

    def inv(self, i):
        r = self._inv_cache[i]
        if r is None:
            r = self._iinv(i)
            self._inv_cache[i] = r
        return r

    def conj(self, x, g):
        """g^-1 * x * g."""
        return self.mul(self.inv(g), self.mul(x, g))

    def value(self, i):
        return self._values[i]

    def label(self, i):
        return self.labels[i]

    def index_of(self, value):
        return self._encode(value)

    def element_order(self, i):
        orders = self._cache.get("element_orders")
        if orders is None:
            orders = [None] * self.order
            self._cache["element_orders"] = orders
        if orders[i] is None:
            k, x = 1, i
            while x != 0:
                x = self.mul(x, i)
                k += 1
            orders[i] = k
        return orders[i]

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"<Group {self.name!r} order {self.order}>"


def generate_group(identity_value, gen_values, vmul, vinv, labeler, name,
                   closure_cap=CLOSURE_CAP, kind="table"):
    """Close generator values under multiplication in a `ClosureBuilder`:
    the canonical element order is the identity, then coset by coset as the
    generators are adopted in the order given."""
    cb = ClosureBuilder(vmul, identity_value, cap=closure_cap, name=name)
    for g in gen_values:
        cb.add(g)
    G = Group(cb.mlist, vmul, vinv, labeler, name=name, kind=kind)
    G.generators = map(G.index_of, gen_values)
    return G


# -- subgroups ---------------------------------------------------------------


class Subgroup:
    """Subset of a parent group's indices, closed under product and inverse.

    normal is True/False once verified and None while unknown; helpers that
    guarantee normality by construction set it to True directly.
    """

    def __init__(self, parent, members, normal=None, gens=None):
        self.parent = parent
        self.members = tuple(sorted(members))
        self.member_set = frozenset(self.members)
        self.normal = normal
        self._gens = tuple(gens) if gens is not None else None
        self._as_group = None

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, i):
        return i in self.member_set

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.member_set == self.member_set)

    def __hash__(self):
        return hash((id(self.parent), self.member_set))

    def __repr__(self):
        return f"<Subgroup order {self.order} of {self.parent.name!r}>"

    def is_trivial(self):
        return self.order == 1

    def is_full(self):
        return self.order == self.parent.order

    def gens(self):
        if self._gens is None:
            self._gens = greedy_generators(self.parent, self.members)
        return self._gens

    def verify_normal(self):
        """Check conjugation stability; caches and returns the verdict."""
        if self.normal is None:
            G = self.parent
            ok = all(G.conj(x, g) in self.member_set
                     for g in G.generators for x in self.gens())
            self.normal = ok
        return self.normal

    def require_normal(self):
        if not self.verify_normal():
            raise NotNormal(f"subgroup of order {self.order} is not normal "
                            f"in {self.parent.name!r}")

    def as_group(self):
        """Materialize as a standalone Group; element values are parent indices.

        Index k stands for members[k], and products are taken in the
        parent, except in the image N x 1 of N in a semidirect product
        N x| H: its member k is k * |H|, N's index k, so it multiplies in N.
        """
        if self._as_group is None:
            G = self.parent
            members = self.members
            pos = {p: i for i, p in enumerate(members)}
            if G.kind == "semidirect" and self.order == G.factors[0].order \
                    and all(p % G.factors[1].order == 0 for p in members):
                mul, inv = G.factors[0].product(), G.factors[0].inv
            else:
                gmul, ginv = G.product(), G.inv

                def mul(i, j):
                    return pos[gmul(members[i], members[j])]

                def inv(i):
                    return pos[ginv(members[i])]

            name = f"{G.name}|sub{self.order}"
            H = Group(members, mul, inv, G.label, name=name,
                      kind="subgroup", encode=pos.__getitem__)
            if self._gens is not None:
                H.generators = [pos[g] for g in self._gens]
            H.parent_indices = members
            self._as_group = H
        return self._as_group

    def local_group(self):
        """The group whose index k stands for members[k]: the parent itself
        when this subgroup is all of it, and as_group() otherwise."""
        return self.parent if self.is_full() else self.as_group()

    def lift(self, sub):
        """The Subgroup of the parent made of members[k] for every index k
        of sub, a Subgroup of local_group() whose image the caller knows
        to be normal in the parent: sub itself, marked normal, when
        local_group() is the parent."""
        if sub.parent is self.parent:
            sub.normal = True
            return sub
        return Subgroup(self.parent, [self.members[k] for k in sub.members],
                        normal=True)

    def intersect(self, other):
        assert other.parent is self.parent
        normal = True if self.normal and other.normal else None
        return Subgroup(self.parent, self.member_set & other.member_set,
                        normal=normal)

    def join(self, other):
        assert other.parent is self.parent
        members = subgroup_closure(self.parent, self.gens() + other.gens())
        normal = True if self.normal and other.normal else None
        return Subgroup(self.parent, members, normal=normal,
                        gens=tuple(dict.fromkeys(self.gens() + other.gens())))


def trivial_subgroup(G):
    return Subgroup(G, (0,), normal=True, gens=())


def full_subgroup(G):
    return Subgroup(G, range(G.order), normal=True, gens=G.generators)


class ClosureBuilder:
    """Incremental closure under any associative product, by Dimino's
    algorithm (G. Butler, Fundamental Algorithms for Permutation Groups,
    LNCS 559, 1991, ch. 6).

    `mul` is any product with identity `identity`: a group's index product
    for subgroups, or a leaf group's value product in `generate_group`.

    Invariant: between calls, `mlist` is the whole subgroup H = <gens>,
    identity first, listed coset by coset. Adopting g not in H appends
    the right coset H*g, then, for each coset representative r (the head
    of each later block of |H| entries) and each generator s, the coset
    H*(r*s) when r*s is not listed yet. A listed r*s lies in a listed
    coset, and so does all of H*(r*s), so once every representative has
    been tried the listed cosets are closed under the generators and form
    <H, g>. When H = 1 the cosets are single elements, so the closure
    walks the powers of g. A `cap` is checked after each appended coset,
    which is no larger than the list before it, so at most 2 * cap are held.

    Cost: one product per new member that does not head its coset, plus
    one per (new coset, generator) pair, where multiplying every member
    by every generator costs |H| * #generators. An element is adopted
    only when it is not already in H, so each adoption at least doubles
    the subgroup and the generator list stays logarithmic in |H|.
    """

    def __init__(self, mul, identity=0, cap=None, name="group"):
        self.mul = mul
        self.member_set = {identity}
        self.mlist = [identity]
        self.gens = []
        self.cap = cap
        self.name = name

    def add(self, g):
        """Adopt g as a generator if new; returns True when the closure grew."""
        member_set = self.member_set
        if g in member_set:
            return False
        mul = self.mul
        mlist = self.mlist
        gens = self.gens
        cap = self.cap
        gens.append(g)
        n = len(mlist)

        def append_coset(e):
            # H*e, headed by e: the identity heads H, so h = 1 is skipped
            coset = [e]
            coset += map(mul, itertools.islice(mlist, 1, n),
                         itertools.repeat(e))
            mlist.extend(coset)
            member_set.update(coset)
            if cap is not None and len(mlist) > cap:
                raise CapExceeded(
                    f"closure of {self.name!r} exceeded cap {cap}")

        append_coset(g)
        head = n
        while head < len(mlist):
            r = mlist[head]
            for s in gens:
                e = mul(r, s)
                if e not in member_set:
                    append_coset(e)
            head += n
        return True

    def sorted_members(self):
        return tuple(sorted(self.member_set))


def subgroup_closure(G, seeds):
    """Members of <seeds> as a sorted tuple of indices (deterministic)."""
    cb = ClosureBuilder(G.mul)
    for s in seeds:
        cb.add(s)
    return cb.sorted_members()


def subgroup_generated(G, seeds, normal=None):
    seeds = tuple(dict.fromkeys(s for s in seeds if s != 0))
    return Subgroup(G, subgroup_closure(G, seeds), normal=normal, gens=seeds)


def greedy_generators(G, members):
    """Small generating set for a known subgroup, chosen deterministically."""
    if len(members) == 1:
        return ()
    cb = ClosureBuilder(G.mul)
    for x in members:
        cb.add(x)
        if len(cb.member_set) == len(members):
            break
    return tuple(cb.gens)


def _conjugation_closure(G, seed, conjugators, normal):
    """Smallest subgroup containing seed and stable under conjugation by
    the conjugators, which generate the group it is normal in."""
    cb = ClosureBuilder(G.mul)
    for s in seed:
        cb.add(s)
    # conjugation-stabilize: conjugating the adopted generators by the
    # conjugators suffices, and each adoption doubles the closure
    while True:
        grew = False
        for g in conjugators:
            for x in list(cb.gens):
                if cb.add(G.conj(x, g)):
                    grew = True
        if not grew:
            return Subgroup(G, cb.sorted_members(), normal=normal,
                            gens=tuple(cb.gens))


def normal_closure(G, seed):
    """Smallest normal subgroup of G containing the seed indices."""
    return _conjugation_closure(G, seed, G.generators, normal=True)


# -- conjugacy, commutators, centers ------------------------------------------


def conjugacy_classes(G):
    """Partition of indices into conjugacy classes.

    Identity class first, then sorted by (size, least member). The classes
    of a quotient G/N are the images of G's classes (two of which may
    share one), so when G's are already known they are fused through the
    quotient's surjection at no product; otherwise the quotient runs its
    own orbits and never computes G's.
    """
    classes = G._cache.get("classes")
    if classes is None:
        pi = G._cache.get("surjection")
        fine = pi.source._cache.get("classes") if pi is not None else None
        out = _class_orbits(G) if fine is None else \
            _class_images(fine, pi.mapping, G.order)
        out.sort(key=lambda c: (len(c), c[0]))
        classes = tuple(out)
        G._cache["classes"] = classes
    return classes


def _class_orbits(G):
    """Classes as orbits under conjugation by the generators."""
    n = G.order
    seen = [False] * n
    out = []
    pairs = [(g, G.inv(g)) for g in G.generators]
    for i in range(n):
        if seen[i]:
            continue
        orbit = [i]
        seen[i] = True
        k = 0
        while k < len(orbit):
            x = orbit[k]
            k += 1
            for g, gi in pairs:
                y = G.mul(gi, G.mul(x, g))
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        out.append(tuple(sorted(orbit)))
    return out


def _class_images(classes, mapping, n):
    """Distinct images of classes under a surjection onto n indices; the
    image of a class is a whole class, so a class whose first member lands
    in an image already taken adds nothing."""
    seen = [False] * n
    out = []
    for c in classes:
        if not seen[mapping[c[0]]]:
            image = sorted({mapping[x] for x in c})
            for y in image:
                seen[y] = True
            out.append(tuple(image))
    return out


def class_index_of(G):
    """Array mapping element index -> conjugacy class position."""
    arr = G._cache.get("class_of")
    if arr is None:
        arr = [0] * G.order
        for ci, cls in enumerate(conjugacy_classes(G)):
            for x in cls:
                arr[x] = ci
        G._cache["class_of"] = arr
    return arr


def _derived(G, gens, normal):
    """Derived subgroup of <gens>: the closure of the generator commutators
    under conjugation by the generators."""
    comms = []
    for x in gens:
        xi = G.inv(x)
        for y in gens:
            c = G.mul(G.mul(xi, G.inv(y)), G.mul(x, y))
            if c != 0:
                comms.append(c)
    if not comms:
        return trivial_subgroup(G)
    return _conjugation_closure(G, comms, gens, normal)


def subgroup_derived(H):
    """Derived subgroup of a Subgroup, computed inside the parent."""
    return _derived(H.parent, H.gens(), None)


def commutator_subgroup(G):
    """Derived subgroup of G, cached on the group."""
    sub = G._cache.get("derived")
    if sub is None:
        sub = _derived(G, G.generators, True)
        G._cache["derived"] = sub
    return sub


def center(G):
    if is_abelian(G):
        return full_subgroup(G)
    gens = G.generators
    members = [x for x in range(G.order)
               if all(G.mul(x, g) == G.mul(g, x) for g in gens)]
    return Subgroup(G, members, normal=True)


def is_abelian(G):
    flag = G._cache.get("abelian")
    if flag is None:
        gens = G.generators
        flag = all(G.mul(a, b) == G.mul(b, a)
                   for a in gens for b in gens)
        G._cache["abelian"] = flag
    return flag


# -- homomorphisms -------------------------------------------------------------


class Homomorphism:
    """Total map between element indices of two groups."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)

    def __call__(self, i):
        return self.mapping[i]

    def is_surjective(self):
        return len(set(self.mapping)) == self.target.order

    def kernel(self):
        members = [i for i, t in enumerate(self.mapping) if t == 0]
        return Subgroup(self.source, members, normal=True)

    def preimage(self, sub):
        assert sub.parent is self.target
        members = [i for i, t in enumerate(self.mapping) if t in sub.member_set]
        normal = True if sub.normal else None
        return Subgroup(self.source, members, normal=normal)

    def validate(self):
        """Check the homomorphism property exactly; True/False.

        m(x*g) = m(x)*m(g) for every x and every generator g suffices: every
        element is a word in the generators, so m(x*y) = m(x)*m(y) follows
        letter by letter. Costs |G| * #generators products.
        """
        G, H, m = self.source, self.target, self.mapping
        if m[0] != 0:
            return False
        return all(m[G.mul(x, g)] == H.mul(m[x], m[g])
                   for g in G.generators for x in range(G.order))


def identity_hom(G):
    return Homomorphism(G, G, range(G.order))


# -- group actions --------------------------------------------------------------


class GroupAction:
    """Right action of `actor` on the group `space` by automorphisms.

    apply(space_index, actor_index) -> space_index.
    """

    def __init__(self, actor, space, apply):
        self.actor = actor
        self.space = space
        self.apply = apply

    def is_trivial(self):
        return all(self.apply(a, g) == a
                   for g in self.actor.generators
                   for a in range(self.space.order))

    def validate(self):
        """Raise NotAnAction / NotAutomorphisms on a violated law.

        The checks are exact, with generators h of the actor and b of the
        space: a^(g*h) = (a^g)^h for every a and g extends to every h by
        induction on its word, and (a*b)^h = a^h * b^h for every a makes each
        generator act by an endomorphism, hence (with the action law) every
        element by an automorphism.
        """
        A, H, app = self.space, self.actor, self.apply
        for a in range(A.order):
            if app(a, 0) != a:
                raise NotAnAction("identity of the actor must act trivially")
        for h in H.generators:
            for g in range(H.order):
                gh = H.mul(g, h)
                for a in range(A.order):
                    if app(a, gh) != app(app(a, g), h):
                        raise NotAnAction("a^(gh) != (a^g)^h")
        for h in H.generators:
            for b in A.generators:
                bh = app(b, h)
                for a in range(A.order):
                    if app(A.mul(a, b), h) != A.mul(app(a, h), bh):
                        raise NotAutomorphisms("(ab)^g != a^g b^g")
        return True


def trivial_action(actor, space):
    return GroupAction(actor, space, lambda a, g: a)


# -- product constructions -------------------------------------------------------


def mixed_radix(factors):
    """Product, inverse and tuple -> index map on the indices of the direct
    product of the factors, numbered as itertools.product numbers tuples.

    An index is x * |rest| + y, x in the first factor and y an index of the
    product of the others, which is split the same way. A part that is the
    identity 0 needs no product.
    """
    head = factors[0]
    if len(factors) == 1:
        return head.product(), head.inv, lambda t: t[0]
    rest = 1
    for f in factors[1:]:
        rest *= f.order
    hmul, hinv = head.product(), head.inv
    rmul, rinv, rencode = mixed_radix(factors[1:])

    def mul(i, j):
        a, b = i // rest, j // rest
        c, d = i % rest, j % rest
        return ((hmul(a, b) if a and b else a + b) * rest
                + (rmul(c, d) if c and d else c + d))

    def inv(i):
        return hinv(i // rest) * rest + rinv(i % rest)

    def encode(t):
        return t[0] * rest + rencode(t[1:])

    return mul, inv, encode


def _at(n, k, x):
    """The n-tuple with x at position k and the identity 0 elsewhere."""
    return (0,) * k + (x,) + (0,) * (n - k - 1)


def direct_product_many(factors, name=None, closure_cap=CLOSURE_CAP):
    """Direct product with tuple values; factors and embeddings retained."""
    check_order(closure_cap, "direct product", (f.order for f in factors))
    mul, inv, encode = mixed_radix(factors)

    def labeler(a):
        return "(" + ", ".join(f.label(x) for f, x in zip(factors, a)) + ")"

    values = itertools.product(*[range(f.order) for f in factors])
    gens = [_at(len(factors), k, g)
            for k, f in enumerate(factors) for g in f.generators]
    if name is None:
        name = " x ".join(f.name for f in factors)
    P = Group(values, mul, inv, labeler, name=name, kind="product",
              encode=encode)
    P.generators = tuple(P.index_of(t) for t in gens)
    P.factors = tuple(factors)
    return P


def direct_product(G, H):
    return direct_product_many([G, H])


def product_embedding(P, k):
    """Canonical embedding of factor k into the product P."""
    n = len(P.factors)
    return Homomorphism(P.factors[k], P, [
        P.index_of(_at(n, k, x)) for x in range(P.factors[k].order)])


def product_projection(P, k):
    factors = P.factors
    f = factors[k]
    return Homomorphism(P, f, [P.value(i)[k] for i in range(P.order)])


def semidirect_product(N, H, act, name=None, validate=True,
                       closure_cap=CLOSURE_CAP):
    """N x| H for a right action of H on N by automorphisms.

    Multiplication (n1,h1)(n2,h2) = (n1^h2 * n2, h1 h2); the same convention
    is reused verbatim by the twisted wreath construction.
    """
    if act.actor is not H or act.space is not N:
        raise NotAnAction("action must have actor H and space N")
    if validate:
        act.validate()
    if name is None:
        name = f"{N.name} x| {H.name}"
    check_order(closure_cap, name, (N.order, H.order))
    app = act.apply
    nmul, ninv, hmul, hinv = N.product(), N.inv, H.product(), H.inv
    nh = H.order

    # the value (n, h) sits at index n * |H| + h; identity parts (index 0)
    # need no factor product and act trivially
    def mul(i, j):
        n1, h1 = i // nh, i % nh
        n2, h2 = j // nh, j % nh
        if h2:
            if n1:
                n1 = app(n1, h2)
            h1 = hmul(h1, h2) if h1 else h2
        if n2:
            n1 = nmul(n1, n2) if n1 else n2
        return n1 * nh + h1

    def inv(i):
        n, h = divmod(i, nh)
        hi = hinv(h)
        return app(ninv(n), hi) * nh + hi

    def encode(v):
        return v[0] * nh + v[1]

    def labeler(a):
        return f"({N.label(a[0])}; {H.label(a[1])})"

    values = itertools.product(range(N.order), range(H.order))
    W = Group(values, mul, inv, labeler, name=name, kind="semidirect",
              encode=encode)
    gens = [(g, 0) for g in N.generators] + [(0, g) for g in H.generators]
    W.generators = tuple(W.index_of(v) for v in gens)
    W.factors = (N, H)
    return W


def left_coset_reps(G, H):
    """Minimal-index representatives of the left cosets xH, sorted, and the
    array mapping each element index to its coset's representative."""
    rep_of = [-1] * G.order
    reps = []
    for i in range(G.order):
        if rep_of[i] == -1:
            reps.append(i)
            for t in H.members:
                rep_of[G.mul(i, t)] = i
    return reps, rep_of


def quotient(G, N, name=None):
    """Quotient group and the canonical surjection; requires N normal."""
    if not isinstance(N, Subgroup) or N.parent is not G:
        raise NotNormal("quotient needs a Subgroup of G")
    N.require_normal()
    key = ("quotient", N.member_set)
    cached = G._cache.get(key)
    if cached is not None:
        return cached
    reps, rep_of = left_coset_reps(G, N)
    pos = {r: k for k, r in enumerate(reps)}
    coset = tuple(pos[r] for r in rep_of)
    gmul, ginv = G.product(), G.inv

    def mul(a, b):
        return coset[gmul(reps[a], reps[b])]

    def inv(a):
        return coset[ginv(reps[a])]

    def labeler(a):
        return f"[{G.label(a)}]"

    if name is None:
        name = f"{G.name}/N{N.order}"
    Q = Group(reps, mul, inv, labeler, name=name, kind="quotient",
              encode=pos.__getitem__)
    Q.generators = tuple(dict.fromkeys(
        coset[g] for g in G.generators if coset[g] != 0))
    hom = Homomorphism(G, Q, coset)
    G._cache[key] = (Q, hom)
    # the surjection from G, through which Q's classes are fused from G's
    Q._cache["surjection"] = hom
    return Q, hom


def local_quotient(a, b):
    """Quotient a/b of normal subgroups b <= a of one group, taken in
    a.local_group(), in which b is re-indexed. Returns (Q, pi); for a
    trivial b that is the host and its identity map, not a second copy
    of the host."""
    host = a.local_group()
    if b.order == 1:
        return host, identity_hom(host)
    members = b.members if host is a.parent else map(host.index_of, b.members)
    return quotient(host, Subgroup(host, members, normal=True))


def fiber_product(alpha, beta):
    """Subgroup {(g,h) : alpha(g) = beta(h)} of G x H for surjections onto K."""
    if alpha.target is not beta.target:
        raise NotSurjective("alpha and beta must land in the same group")
    if not alpha.is_surjective() or not beta.is_surjective():
        raise NotSurjective("fiber product needs surjective maps")
    G, H, K = alpha.source, beta.source, alpha.target
    name = f"{G.name} xK {H.name}"
    total = G.order * H.order // K.order
    check_order(CLOSURE_CAP, name, (total,))
    am, bm = alpha.mapping, beta.mapping
    values = [(i, j) for i in range(G.order) for j in range(H.order)
              if am[i] == bm[j]]
    assert len(values) == total

    def vmul(a, b):
        return (G.mul(a[0], b[0]), H.mul(a[1], b[1]))

    def vinv(a):
        return (G.inv(a[0]), H.inv(a[1]))

    def labeler(a):
        return f"({G.label(a[0])}, {H.label(a[1])})"

    P = Group(values, vmul, vinv, labeler, name=name, kind="fiber")
    P.factors = (G, H)
    return P


# -- permutation groups ------------------------------------------------------------


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def perm_from_cycles(degree, text):
    """Permutation tuple (0-based images) from 1-based cycle notation."""
    if isinstance(text, (tuple, list)):
        cycles = [tuple(c) for c in text]
        stripped = ""
    else:
        stripped = text.strip()
        if stripped in ("()", "1", ""):
            return tuple(range(degree))
        body = _CYCLE_RE.sub("", stripped)
        if body.strip():
            raise MalformedCycle(f"unexpected text in cycle word: {text!r}")
        cycles = []
        for grp in _CYCLE_RE.findall(stripped):
            pts = grp.replace(",", " ").split()
            if not pts:
                continue
            try:
                cycles.append(tuple(int(p) for p in pts))
            except ValueError:
                raise MalformedCycle(f"non-integer point in {text!r}") from None
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for p in cyc:
            if not 1 <= p <= degree:
                raise MalformedCycle(f"point {p} outside 1..{degree}")
            if p in seen:
                raise MalformedCycle(f"point {p} repeated in {text!r}")
            seen.add(p)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def cycle_label(perm):
    """Canonical cycle notation, 1-based, fixpoints omitted, () for identity."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(cyc)
    if not cycles:
        return "()"
    cycles.sort(key=lambda c: c[0])
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)


def perm_mul(p, q):
    return tuple(q[x] for x in p)


def perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def group_from_perm_generators(degree, generators, name=None,
                               closure_cap=CLOSURE_CAP):
    """Permutation group generated by cycle words on {1..degree}."""
    if degree < 1:
        raise MalformedCycle("degree must be positive")
    check_degree(closure_cap, degree)
    gen_values = [perm_from_cycles(degree, g) for g in generators]
    if name is None:
        name = "perm(" + "; ".join(cycle_label(g) for g in gen_values) + ")"
    G = generate_group(tuple(range(degree)), gen_values, perm_mul, perm_inv,
                       cycle_label, name, closure_cap=closure_cap, kind="perm")
    G.degree = degree
    return G


# -- validation and isomorphism -----------------------------------------------------


def check_group_axioms(G):
    """Closure, identity, inverse, associativity, generation.

    Associativity is exact by Light's test: (x*g)*y = x*(g*y) for every x,
    y and generator g. The elements a with (x*a)*y = x*(a*y) for all x and
    y are closed under products, and the generation check reaches every
    element by right products from the identity, so the generators'
    passing makes every triple associative. Costs 2 * |G|^2 products per
    generator. Returns a list of problem strings; empty means all checks
    passed.
    """
    problems = []
    mul = G.mul
    n = G.order
    for i in range(n):
        if mul(0, i) != i or mul(i, 0) != i:
            problems.append(f"identity law fails at {i}")
        if mul(i, G.inv(i)) != 0 or mul(G.inv(i), i) != 0:
            problems.append(f"inverse law fails at {i}")
    for g in G.generators:
        xg = [mul(x, g) for x in range(n)]
        gy = [mul(g, y) for y in range(n)]
        bad = next(((x, y) for x in range(n) for y in range(n)
                    if mul(xg[x], y) != mul(x, gy[y])), None)
        if bad is not None:
            x, y = bad
            problems.append(f"associativity fails at ({x},{g},{y})")
            break
    if len(subgroup_closure(G, G.generators)) != n:
        problems.append("generators do not generate the group")
    return problems


def find_isomorphism(G, H):
    """Backtracking generator-image search; None if no isomorphism is found.

    Adequate for order <= 200; used by tests and small structure checks only.
    """
    if G.order != H.order:
        return None
    if G.order > 200:
        raise CapExceeded("isomorphism search capped at order 200")
    if sorted(len(c) for c in conjugacy_classes(G)) != \
            sorted(len(c) for c in conjugacy_classes(H)):
        return None
    g_orders = sorted(G.element_order(i) for i in range(G.order))
    h_orders = sorted(H.element_order(i) for i in range(H.order))
    if g_orders != h_orders:
        return None
    gens = G.generators
    candidates = [
        [x for x in range(H.order) if H.element_order(x) == G.element_order(g)]
        for g in gens]

    def extend(images):
        k = len(images)
        if k == len(gens):
            mapping = extend_along_cayley_graph(G, images, H.product(), 0)
            if mapping is None or len(set(mapping)) != G.order:
                return None
            return Homomorphism(G, H, mapping)
        for x in candidates[k]:
            h = extend(images + [x])
            if h is not None:
                return h
        return None

    return extend([])


def extend_along_cayley_graph(G, images, compose, identity):
    """Images of every element of G from images of G.generators.

    Walks the Cayley graph breadth first: the image of x*g is
    compose(image of x, image of g). The image of every element met again is
    compared with the one it has, so a result respects every relation of G.
    None when two paths disagree or the walk does not reach all of G.
    """
    mul = G.product()
    out = [None] * G.order
    out[0] = identity
    queue = [0]
    steps = list(zip(G.generators, images))
    for x in queue:
        image = out[x]
        for g, img in steps:
            y = mul(x, g)
            fy = compose(image, img)
            if out[y] is None:
                out[y] = fy
                queue.append(y)
            elif out[y] != fy:
                return None
    return out if len(queue) == G.order else None


def is_isomorphic(G, H):
    return find_isomorphism(G, H) is not None

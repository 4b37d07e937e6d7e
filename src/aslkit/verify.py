"""Named verification suites over the group catalog.

`SUITES`, in `verify all` order, holds each suite's claim and the function
that turns --max-order into its (case id, check) jobs: `_sweep` declares a
catalog sweep by a per-group check and an order cap that clamps
--max-order, and `_fixed` a suite of fixed cases that ignores it. Cases run
one after another in the calling thread. They share the unsynchronized
per-group memos and the catalog cache, and under the interpreter lock
pure-Python cases gain nothing from a pool.
"""

from __future__ import annotations

import gc
import itertools
import math
import time
from functools import lru_cache, partial

from .core import (
    FrozenRecord,
    GroupAction,
    Homomorphism,
    Record,
    Subgroup,
    commutator_subgroup,
    conjugacy_classes,
    direct_product_many,
    fiber_product,
    find_isomorphism,
    full_subgroup,
    quotient,
    set_field,
    subgroup_generated,
    trivial_subgroup,
)
from .catalog import catalog, transitive_catalog
from .errors import ToolkitError
from .families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    klein_group,
    quaternion_group,
    symmetric_group,
)
from .fpmod import GSet, LinearAction, as_group_action, coset_space, \
    orbit_hypothesis, unipotent_derived_length, v_chain
from .matgroups import (
    corollary_decomposition,
    gl_group,
    glz_group,
    is_l_group,
    residue_kernel,
    search_lp,
    sl_group,
    validate_lp,
)
from .normal import all_normal_subgroups, power_families, \
    product_normal_decomposition
from .oracle import ORACLE_CLASS_CAP, oracle_D, oracle_length, \
    oracle_normal_subgroups
from .series import (
    abelian_simple_length,
    derived_series,
    factor_descriptor_of,
    generalized_derived_series,
    generalized_derived_subgroup,
)
from .wreath import (
    msigma_hypothesis,
    msigma_witness,
    twisted_wreath_product,
    wreath_quotient,
)


class Case(FrozenRecord):
    __slots__ = ("id", "ok", "detail")

    def __init__(self, id, ok, detail):
        set_field(self, "id", id)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)


class SuiteResult(Record, compare=("suite", "claim", "cases")):
    __slots__ = ("suite", "claim", "cases", "elapsed")

    def __init__(self, suite, claim, cases, elapsed=0.0):
        self.suite = suite
        self.claim = claim
        self.cases = cases
        self.elapsed = elapsed  # seconds, whole suite

    @property
    def passed(self):
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self):
        return sum(1 for c in self.cases if not c.ok)

    @property
    def ok(self):
        return self.failed == 0


def _run_cases(claim, suite, jobs):
    """jobs: list of (id, zero-arg callable -> (ok, detail)); the cases are
    returned sorted by case id.

    What exists on entry is frozen, and after each case the cyclic
    collector runs once and what survives, mostly per-group caches that
    live until exit anyway, is frozen too, so collections walk only what
    the running case allocates; the freeze on entry keeps a suite's first
    collection from walking every earlier suite's caches again. The suite
    unfreezes all of it on the way out; a caller that froze objects itself
    keeps the collector as it left it.
    """
    scoped = gc.get_freeze_count() == 0
    cases = []
    try:
        if scoped:
            gc.freeze()
        for cid, fn in jobs:
            try:
                ok, detail = fn()
            except ToolkitError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            cases.append(Case(cid, ok, detail))
            if scoped:
                gc.collect()
                gc.freeze()
    finally:
        if scoped:
            gc.unfreeze()
    cases.sort(key=lambda c: c.id)
    return SuiteResult(suite, claim, cases)


def _sweep(check, cap=None, select=None):
    """Jobs of a catalog sweep: check(g) for every catalog group g of order
    at most --max-order, clamped to cap, that select(g) keeps."""
    def jobs(max_order):
        bound = max_order if cap is None else min(max_order, cap)
        return [(name, partial(check, g)) for name, g in catalog(bound)
                if select is None or select(g)]
    return jobs


def _fixed(cases):
    """Jobs of a suite of fixed cases, listed by cases()."""
    return lambda max_order: cases()


def _cyclic_subgroup(G, k, normal=None):
    """The subgroup generated by the first element of order k."""
    x = next(i for i in range(G.order) if G.element_order(i) == k)
    return subgroup_generated(G, [x], normal=normal)


# -- individual suites -----------------------------------------------------------


def _log_length(g):
    lng = abelian_simple_length(g)
    bound = math.log2(g.order) if g.order > 1 else 0
    return lng <= bound + 1e-9, f"l={lng} |G|={g.order}"


def _solvable_coincidence(g):
    """For solvable g, the derived series, the generalized derived series
    and the D-steps taken by definition agree term by term. The series of
    a solvable g is read from the derived walk that decided its
    solvability, so each step D(term) is also computed from the term's
    local group, as `generalized_derived_subgroup` defines it, and lifted.

    Also the catalog-wide check that every step of the generalized
    derived series is (abelian) x (semisimple): reading the factors
    decomposes each step quotient, for solvable and nonsolvable g alike."""
    gds = generalized_derived_series(g)
    gds.factors
    der = derived_series(g)
    if not der.terminates:
        return True, "not solvable; vacuous"
    same = len(der.terms) == len(gds.terms) and all(
        a.member_set == b.member_set for a, b in zip(der.terms, gds.terms))
    # with the terms equal, D(term i) = term i + 1 at every step is the
    # D-step walk from g; it reuses the local groups the factors built
    same = same and all(
        a.lift(generalized_derived_subgroup(a.local_group())).member_set
        == b.member_set for a, b in zip(gds.terms, der.terms[1:]))
    return same, f"orders {gds.orders()}"


def _quotient_law(g):
    """Image law plus the trivial-intersection family law.

    The family law is checked on all lattice pairs with trivial intersection
    and on the full proper-normal family; that covers every family: any
    family with trivial intersection contains a two-step refinement through
    lattice intersections, and quotient lengths never exceed l(G).
    """
    gds = generalized_derived_series(g)
    lat = list(all_normal_subgroups(g))
    lg = gds.length
    quots = {}
    for nsub in lat:
        q, pi = quotient(g, nsub)
        qser = generalized_derived_series(q)
        if len(qser.terms) > len(gds.terms):
            return False, f"quotient series longer at |N|={nsub.order}"
        for i, qterm in enumerate(qser.terms):
            image = {pi.mapping[x] for x in gds.term(i).members}
            if image != qterm.member_set:
                return False, f"image law fails at step {i}, |N|={nsub.order}"
        quots[nsub.member_set] = qser.length
        if qser.length > lg:
            return False, f"l(G/N) > l(G) at |N|={nsub.order}"
    pair_checked = 0
    for i, n1 in enumerate(lat):
        for n2 in lat[i:]:
            if len(n1.member_set & n2.member_set) == 1:
                pair_checked += 1
                want = max(quots[n1.member_set], quots[n2.member_set])
                if want != lg:
                    return False, (f"family law fails on pair "
                                   f"({n1.order},{n2.order})")
    proper = [n for n in lat if n.order < g.order]
    inter = frozenset(range(g.order))
    for n in proper:
        inter = inter & n.member_set
    if len(inter) == 1 and proper:
        if max(quots[n.member_set] for n in proper) != lg:
            return False, "family law fails on the full family"
    return True, f"{len(lat)} normals, {pair_checked} trivial pairs"


def _normal_law(g):
    gds = generalized_derived_series(g)
    for nsub in all_normal_subgroups(g):
        ng = nsub.as_group()
        nser = generalized_derived_series(ng)
        if nser.length > gds.length:
            return False, f"l(N) > l(G) at |N|={nsub.order}"
        for i, nterm in enumerate(nser.terms):
            up = {ng.parent_indices[x] for x in nterm.members}
            if not up <= gds.term(i).member_set:
                return False, f"containment fails at step {i}"
    return True, f"l(G)={gds.length}"


def _extension_law(g):
    lg = abelian_simple_length(g)
    for nsub in all_normal_subgroups(g):
        q, _ = quotient(g, nsub)
        ln = abelian_simple_length(nsub.as_group())
        lq = abelian_simple_length(q)
        if lg > ln + lq:
            return False, f"{lg} > {ln}+{lq} at |N|={nsub.order}"
    return True, f"l(G)={lg}"


def _sign_hom(sym, c2):
    """The sign map, a permutation's sign being the parity of its
    inversions."""
    return Homomorphism(sym, c2, [
        sum(a > b for a, b in itertools.combinations(sym.value(i), 2)) % 2
        for i in range(sym.order)])


def _mod_hom(cn, cm):
    return Homomorphism(cn, cm, [x % cm.order for x in range(cn.order)])


def fiber_triples():
    """Twenty fixed (G, H, alpha, beta) fiber-product instances."""
    triples = []
    c2 = cyclic_group(2)

    def sign_pair(n, m):
        a, b = symmetric_group(n), symmetric_group(m)
        return (f"S{n},S{m} over C2", a, b, _sign_hom(a, c2), _sign_hom(b, c2))

    triples.append(sign_pair(3, 3))
    triples.append(sign_pair(4, 4))
    triples.append(sign_pair(5, 5))
    triples.append(sign_pair(4, 3))

    s4 = symmetric_group(4)
    v4 = next(s for s in all_normal_subgroups(s4) if s.order == 4)
    k_s3, pi_s3 = quotient(s4, v4)
    triples.append(("S4,S4 over S4/V4", s4, s4, pi_s3, pi_s3))
    s3 = symmetric_group(3)
    iso = find_isomorphism(s3, k_s3)
    triples.append(("S4,S3 over S4/V4", s4, s3, pi_s3, iso))

    for n, m, k in ((4, 4, 2), (6, 6, 3), (6, 4, 2), (8, 8, 4)):
        cn, cm, ck = cyclic_group(n), cyclic_group(m), cyclic_group(k)
        triples.append((f"C{n},C{m} over C{k}", cn, cm,
                        _mod_hom(cn, ck), _mod_hom(cm, ck)))

    d4 = dihedral_group(4)
    rot_sub = _cyclic_subgroup(d4, 4, normal=True)
    k_c2, pi_d4 = quotient(d4, rot_sub)
    triples.append(("D4,D4 over D4/rot", d4, d4, pi_d4, pi_d4))
    iso_c2 = find_isomorphism(c2, k_c2)
    triples.append(("D4,C2 over D4/rot", d4, c2, pi_d4, iso_c2))

    q8 = quaternion_group()
    i_sub = subgroup_generated(q8, [2], normal=True)  # <i>, order 4
    k_q, pi_q = quotient(q8, i_sub)
    triples.append(("Q8,Q8 over Q8/<i>", q8, q8, pi_q, pi_q))

    a4 = alternating_group(4)
    v4a = next(s for s in all_normal_subgroups(a4) if s.order == 4)
    k_c3, pi_a4 = quotient(a4, v4a)
    triples.append(("A4,A4 over A4/V4", a4, a4, pi_a4, pi_a4))
    c3 = cyclic_group(3)
    triples.append(("A4,C3 over A4/V4", a4, c3, pi_a4,
                    find_isomorphism(c3, k_c3)))

    triples.append(("S4,C2 over C2", s4, c2, _sign_hom(s4, c2),
                    Homomorphism(c2, c2, (0, 1))))

    c1 = cyclic_group(1)
    triples.append(("S3,A4 over C1", s3, a4,
                    Homomorphism(s3, c1, [0] * 6),
                    Homomorphism(a4, c1, [0] * 12)))

    vk = klein_group()
    # kernel {e, (1 2)(3 4)}: exactly the elements preserving the block {1,2}
    proj = Homomorphism(vk, c2, [0 if vk.value(i)[0] in (0, 1) else 1
                                 for i in range(4)])
    triples.append(("V4,V4 over C2", vk, vk, proj, proj))

    sl23 = sl_group(2, 3)
    q8_in = next(s for s in all_normal_subgroups(sl23) if s.order == 8)
    k_3, pi_sl = quotient(sl23, q8_in)
    triples.append(("SL(2,3),C3 over C3", sl23, c3, pi_sl,
                    find_isomorphism(c3, k_3)))

    triples.append(("C2,C2 over C2", c2, c2,
                    Homomorphism(c2, c2, (0, 1)),
                    Homomorphism(c2, c2, (0, 1))))
    return triples


def _fiber_cases():
    def fn(g, h, alpha, beta):
        fp = fiber_product(alpha, beta)
        lf = abelian_simple_length(fp)
        bound = max(abelian_simple_length(g), abelian_simple_length(h))
        return lf <= bound, f"l={lf} bound={bound} |GxKH|={fp.order}"
    return [(name, partial(fn, *instance))
            for name, *instance in fiber_triples()]


def _product_decomposition_cases():
    def fn(a, simples):
        prod = direct_product_many([a] + simples)
        lat = all_normal_subgroups(prod)
        for nsub in lat:
            ncap_a, jset = product_normal_decomposition(a, simples, nsub)
            q, _ = quotient(prod, nsub)
            want = (a.order // ncap_a.order) * math.prod(
                simples[i].order for i in range(len(simples))
                if i not in jset)
            if q.order != want:
                return False, f"quotient order {q.order} != {want}"
            desc = factor_descriptor_of(q)
            want_simple = sorted(simples[i].order
                                 for i in range(len(simples))
                                 if i not in jset)
            if list(desc.simple_orders) != want_simple:
                return False, "quotient simple part mismatch"
        return True, f"{len(lat)} normals decomposed"
    families = [
        ("C6 x A5", cyclic_group(6), [alternating_group(5)]),
        ("C2 x A5", cyclic_group(2), [alternating_group(5)]),
        ("C4 x A5", cyclic_group(4), [alternating_group(5)]),
        ("C1 x A5 x A5", cyclic_group(1),
         [alternating_group(5), alternating_group(5)]),
        ("C2 x A5 x A5", cyclic_group(2),
         [alternating_group(5), alternating_group(5)]),
    ]
    return [(name, partial(fn, a, simples)) for name, a, simples in families]


def _s3_order2_subgroup():
    s3 = symmetric_group(3)
    g0elt = next(i for i in range(6) if s3.label(i) == "(1 2)")
    return s3, subgroup_generated(s3, [g0elt])


def _inversion_action(cn, actor_group):
    """Order-2 actor inverting a cyclic group."""
    def apply(a, t):
        return a if t == 0 else cn.inv(a)
    return GroupAction(actor_group, cn, apply)


def _exact_sequence_cases():
    jobs = []

    def main_case():
        s3, g0 = _s3_order2_subgroup()
        c4 = cyclic_group(4)
        act = _inversion_action(c4, g0.as_group())
        act.validate()
        a0 = Subgroup(c4, [0, 2], normal=True)
        hom = wreath_quotient(c4, a0, s3, g0, act)
        if not hom.is_surjective():
            return False, "not surjective"
        ker = hom.kernel()
        if ker.order != 8:
            return False, f"kernel order {ker.order} != 8"
        w = hom.wreath_source
        ind_a0 = {w.group.index_of((f, 0)) for f in range(w.ind_group.order)
                  if all(x in (0, 2) for x in w.ind_group.value(f))}
        if ker.member_set != ind_a0:
            return False, "kernel is not Ind(A0)"
        return True, "kernel = Ind(A0), order 8"
    jobs.append(("C4/C2 over S3, |G0|=2", main_case))

    def composite_case():
        s3, g0 = _s3_order2_subgroup()
        c4 = cyclic_group(4)
        act = _inversion_action(c4, g0.as_group())
        a0 = Subgroup(c4, [0, 2], normal=True)
        hom1 = wreath_quotient(c4, a0, s3, g0, act)
        wbar = hom1.wreath_target
        abar = wbar.a
        full_bar = full_subgroup(abar)
        act_bar_src = wbar.g0.as_group()
        hom2 = wreath_quotient(abar, full_bar, s3, g0,
                               GroupAction(act_bar_src, abar,
                                           lambda a, t: a))
        composite_kernel = {i for i in range(hom1.source.order)
                            if hom2.mapping[hom1.mapping[i]] == 0}
        direct = wreath_quotient(c4, full_subgroup(c4), s3, g0, act)
        if composite_kernel != direct.kernel().member_set:
            return False, "composite kernel differs from direct kernel"
        return True, f"composite kernel order {len(composite_kernel)}"
    jobs.append(("composite C4 -> C4/C2 -> 1", composite_case))

    def a0_full():
        c2 = cyclic_group(2)
        c4 = cyclic_group(4)
        hom = wreath_quotient(c4, full_subgroup(c4), c2,
                              trivial_subgroup(c2))
        ok = hom.is_surjective() and hom.target.order == 2 \
            and hom.kernel().order == 16
        return ok, "quotient by A itself collapses to G"
    jobs.append(("A0 = A", a0_full))

    def a0_trivial():
        c2 = cyclic_group(2)
        c4 = cyclic_group(4)
        hom = wreath_quotient(c4, trivial_subgroup(c4), c2,
                              trivial_subgroup(c2))
        return (hom.is_surjective() and hom.kernel().order == 1,
                "trivial A0 gives an isomorphism")
    jobs.append(("A0 = 1", a0_trivial))

    def small_kernel():
        c2 = cyclic_group(2)
        c4 = cyclic_group(4)
        a0 = Subgroup(c4, [0, 2], normal=True)
        hom = wreath_quotient(c4, a0, c2, trivial_subgroup(c2))
        return hom.kernel().order == 4, "kernel order |A0|^2 = 4"
    jobs.append(("C4/C2 over C2, G0 = 1", small_kernel))

    return jobs


def _msigma_cases():
    def case_cn(n):
        cn = cyclic_group(n)
        w = msigma_witness(cyclic_group(2), cn, trivial_subgroup(cn), m=0)
        return w is not None, f"witness index {w.index if w else None}"
    jobs = [(f"A=C2 G=C{n} G0=1 m=0", partial(case_cn, n)) for n in (3, 2)]

    def case_a4():
        a4 = alternating_group(4)
        g0 = _cyclic_subgroup(a4, 3)
        w = twisted_wreath_product(cyclic_group(2), a4, g0)
        if w.group.order != 192:
            return False, f"|H| = {w.group.order} != 192"
        wit = msigma_witness(cyclic_group(2), a4, g0, m=1)
        return wit is not None, "witness found in H^(2) n Ind, |H| = 192"
    jobs.append(("A=C2 G=A4 G0=C3 m=1", case_a4))

    def case_false():
        c2 = cyclic_group(2)
        wit = msigma_witness(cyclic_group(2), c2, full_subgroup(c2), m=0)
        hyp = msigma_hypothesis(c2, full_subgroup(c2), 0)
        return wit is None and not hyp, "hypothesis false, no witness"
    jobs.append(("A=C2 G=G0=C2 m=0", case_false))

    return jobs


@lru_cache(maxsize=None)
def _a5_wreath_c2():
    """The order-7200 reference wreath, built once per process."""
    c2 = cyclic_group(2)
    return twisted_wreath_product(alternating_group(5), c2,
                                  trivial_subgroup(c2))


@lru_cache(maxsize=None)
def _a5_wreath_s3():
    s3 = symmetric_group(3)
    return twisted_wreath_product(alternating_group(5), s3,
                                  _cyclic_subgroup(s3, 3))


def _simple_nonabelian_cases():
    def big_case():
        w = _a5_wreath_c2()
        series = generalized_derived_series(w.group, max_steps=1)
        h1 = series.terms[1]
        ok = h1.order == 3600 and h1.member_set == w.ind.member_set
        return ok, f"H^(1) order {h1.order}, equals Ind: {ok}"

    def nontrivial_term_case():
        # [G^(0) G0 : G0] = [S3 : A3] = 2 > 1, so H^(1) = Ind x| G^(1)
        w = _a5_wreath_s3()
        series = generalized_derived_series(w.group, max_steps=1)
        h1 = series.terms[1]
        g1 = generalized_derived_series(w.g).terms[1]
        want = {w.group.index_of((f, s)) for f in range(w.ind_group.order)
                for s in g1.members}
        ok = h1.member_set == want
        return ok, f"H^(1) = Ind x| G^(1), order {h1.order}"

    return [("A=A5 G=C2 G0=1", big_case),
            ("A=A5 G=S3 G0=A3", nontrivial_term_case)]


def _nontrivial_action():
    s3 = symmetric_group(3)
    g0 = _cyclic_subgroup(s3, 3)
    lin = LinearAction(g0.as_group(), 2, 2, [((0, 1), (1, 1))])
    gact = as_group_action(lin)
    w = twisted_wreath_product(gact.space, s3, g0, gact)
    if w.group.order != 96:
        return False, f"|H| = {w.group.order} != 96"
    hp = commutator_subgroup(w.group)
    gp = commutator_subgroup(s3)
    want = {w.group.index_of((f, s)) for f in range(w.ind_group.order)
            for s in gp.members}
    ok = hp.member_set == want
    return ok, f"|H'| = {hp.order} = |Ind| * |G'| = {16 * gp.order}"


def _trvrep_subgroups(g):
    """The cyclic subgroups of g up to conjugacy, one per power family of
    classes (the identity's gives 1), then g itself unless it is cyclic."""
    classes = conjugacy_classes(g)
    subs = [subgroup_generated(g, [classes[c][0]])
            for c, first in enumerate(power_families(g)) if c == first]
    if not any(sub.is_full() for sub in subs):
        subs.append(full_subgroup(g))
    return subs


def _trvrep(g):
    """Orbit hypothesis forces a nonzero chain term.

    G0 runs over `_trvrep_subgroups`: conjugate subgroups give isomorphic
    coset spaces, so the instance count is an invariant of the group. Full
    subgroup enumeration is out of scope, and these already give every
    orbit size pattern the statement quantifies over at this scale.
    """
    checked = 0
    for sub in _trvrep_subgroups(g):
        x = coset_space(g, sub)
        needed = [m for m in (0, 1) if orbit_hypothesis(g, x, m)]
        if not needed:
            continue
        for p in (2, 3):
            chain = v_chain(g, x, p, max(needed) + 1)
            for m in needed:
                checked += 1
                if chain[m + 1].dim == 0:
                    return False, (f"V_{m + 1} = 0 with orbit "
                                   f"hypothesis, |X|={x.size}, p={p}")
    return True, f"{checked} hypothesis instances"


def _trvrep_fixed():
    c2 = cyclic_group(2)
    x2 = coset_space(c2, trivial_subgroup(c2))
    dims = [v.dim for v in v_chain(c2, x2, 2, 2)]
    if dims != [2, 1, 0]:
        return False, f"C2 dims {dims}"
    c1 = cyclic_group(1)
    x3 = GSet(c1, 3, [])
    if [v.dim for v in v_chain(c1, x3, 2, 1)] != [3, 0]:
        return False, "trivial group dims"
    a4 = alternating_group(4)
    x4 = coset_space(a4, _cyclic_subgroup(a4, 3))
    chain = v_chain(a4, x4, 2, 2)
    if chain[2].dim == 0:
        return False, "A4 on A4/C3: V_2 = 0"
    return True, "fixed chain examples"


def _trvrep_jobs(max_order):
    return _sweep(_trvrep, cap=48)(max_order) + \
        [("fixed-instances", _trvrep_fixed)]


def _kernel_cases():
    def fn(ell, k):
        ker = residue_kernel(2, ell, k)
        if k == 1:
            return ker.order == 1, "k=1 reduction is the identity"
        ok = ker.order == ell ** 4 and is_l_group(ker, ell)
        return ok, f"kernel order {ker.order}"
    return [(f"n=2 l={ell} k={k}", partial(fn, ell, k))
            for ell, k in ((2, 2), (3, 2), (2, 1))]


def _lp_cases():
    jobs = []

    def gl22():
        lam = gl_group(2, 2)
        filt = search_lp(lam, 2, 2)
        if filt is None:
            return False, "search failed"
        rep = validate_lp(lam, 2, 2, filt)
        amb = glz_group(2, 2, 1)
        n, length = corollary_decomposition(full_subgroup(amb), 2, 2)
        ok = rep.ok and filt.orders() == (3, 3, 1) and length <= 3
        return ok, f"filtration {filt.orders()}, l(L/N) = {length}"
    jobs.append(("GL(2,2) l=2 J=2", gl22))

    def sl24():
        lam = sl_group(2, 4)
        filt = search_lp(lam, 2, 1)
        if filt is None:
            return False, "search failed"
        rep = validate_lp(lam, 2, 1, filt)
        ok = rep.ok and filt.orders() == (60, 1, 1)
        return ok, f"filtration {filt.orders()}"
    jobs.append(("SL(2,4) l=2 J=1", sl24))

    def sl23():
        amb = glz_group(2, 3, 1)
        members = [i for i in range(amb.order)
                   if _det2(amb.value(i), 3) == 1]
        lam_sub = Subgroup(amb, members)
        lam = lam_sub.as_group()
        filt = search_lp(lam, 3, 2)
        if filt is None:
            return False, "search failed"
        rep = validate_lp(lam, 3, 2, filt)
        n, length = corollary_decomposition(lam_sub, 3, 2)
        ok = rep.ok and n.order == 1 and length == 3
        return ok, (f"filtration {filt.orders()}, N = 1, "
                    f"l = {length} <= 3")
    jobs.append(("SL(2,3) l=3 J=2", sl23))

    return jobs


def _det2(M, m):
    return (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % m


def _sn_bound_cases():
    jobs = []
    for n in range(1, 8):
        def fn(n=n):
            lng = abelian_simple_length(symmetric_group(n))
            return lng <= 3, f"l(S{n}) = {lng}"
        jobs.append((f"S{n}", fn))
    for name, g, d in transitive_catalog(6):
        def fn(g=g, d=d):
            lng = abelian_simple_length(g)
            bound = math.log2(math.factorial(d)) if d > 1 else 0
            return lng <= bound + 1e-9, f"l = {lng}, log2({d}!) = {bound:.2f}"
        jobs.append((f"transitive {name} deg {d}", fn))
    return jobs


def _unipotent_cases():
    def fn(n, p):
        dl = unipotent_derived_length(n, p)
        return dl <= n - 1, f"derived length {dl}"
    return [(f"U({n},{p})", partial(fn, n, p))
            for n in (2, 3, 4) for p in (2, 3, 5)]


def _oracle_agreement(interior_cap, g):
    main_lat = sorted((s.order, s.members)
                      for s in all_normal_subgroups(g))
    orc_lat = sorted((s.order, s.members)
                     for s in oracle_normal_subgroups(g))
    if main_lat != orc_lat:
        return False, "lattice disagreement"
    if generalized_derived_subgroup(g).member_set != \
            oracle_D(g).member_set:
        return False, "D disagreement"
    lm = abelian_simple_length(g)
    lo = oracle_length(g, max_classes=interior_cap)
    if lm != lo:
        return False, f"length {lm} != oracle {lo}"
    return True, f"l = {lm}, {len(main_lat)} normals"


def _oracle_jobs(max_order):
    """Groups are selected by the class cap, but the oracle itself runs with
    the cap lifted to the order bound: derived steps of a small-class group
    can have more classes than the group itself (D3 x D7 descends to C21),
    and the pruned enumeration handles them exhaustively either way."""
    max_order = min(max_order, 100)
    check = partial(_oracle_agreement, max(ORACLE_CLASS_CAP, max_order))
    return _sweep(check, select=_few_classes)(max_order)


def _few_classes(g):
    return len(conjugacy_classes(g)) <= ORACLE_CLASS_CAP


SUITES = {
    "log-length": (
        "abelian-simple length is at most log2 of the group order",
        _sweep(_log_length)),
    "solvable-coincidence": (
        "for solvable groups the generalized derived series equals the "
        "derived series term by term", _sweep(_solvable_coincidence)),
    "quotient-law": (
        "quotient maps send series terms to series terms; l(G) is the max of "
        "l(G/N) over any trivial-intersection family of normals",
        _sweep(_quotient_law, cap=48)),
    "normal-law": (
        "series terms of a normal subgroup are contained in the group's "
        "series terms, so l(N) <= l(G)", _sweep(_normal_law, cap=48)),
    "fiber-law": ("fiber products satisfy l(GxKH) <= max(l(G), l(H))",
                  _fixed(_fiber_cases)),
    "extension-law": ("l(G) <= l(N) + l(G/N) for every normal subgroup",
                      _sweep(_extension_law, cap=48)),
    "product-decomposition": (
        "every normal subgroup of (abelian) x (nonabelian simples) is "
        "(N n A) x a subproduct, and the quotient matches the complementary "
        "structure", _fixed(_product_decomposition_cases)),
    "exact-sequence": (
        "reducing A modulo an invariant normal A0 gives a wreath surjection "
        "with kernel Ind(A0), and composite quotients compose exactly",
        _fixed(_exact_sequence_cases)),
    "msigma": (
        "coset count of G0 in G^(m) G0 above 2^m forces a nontrivial element "
        "of the (m+1)-st series term inside Ind", _fixed(_msigma_cases)),
    "simple-nonabelian": (
        "for A a product of copies of one nonabelian simple group, the "
        "wreath series term is Ind x| (series term of G)",
        _fixed(_simple_nonabelian_cases)),
    "nontrivial-action": (
        "for a nontrivial irreducible F_p module A of G0, the wreath derived "
        "subgroup is Ind x| G'",
        _fixed(lambda: [("p=2 A=F2^2 G0=C3 G=S3", _nontrivial_action)])),
    "trvrep": ("an orbit of G^(m) larger than 2^m forces V_(m+1) nonzero",
               _trvrep_jobs),
    "kernel": (
        "the kernel of entrywise reduction GL_n(Z/l^k) -> GL_n(Z/l) is an "
        "l-group of order l^(n^2 (k-1))", _fixed(_kernel_cases)),
    "lp": (
        "filtration search succeeds and validates on the reference matrix "
        "groups; the residual length obeys log2(J) + 2", _fixed(_lp_cases)),
    "sn-bound": (
        "symmetric groups up to degree 7 have length at most 3; transitive "
        "degree-d groups have length at most log2(d!)",
        _fixed(_sn_bound_cases)),
    "unipotent": (
        "unitriangular groups U(n,p) have derived length at most n-1",
        _fixed(_unipotent_cases)),
    "oracle-agreement": (
        "join-closure lattices, D, and length agree with the "
        "definition-direct brute-force oracle", _oracle_jobs),
}


def run_suite(name, max_order=200):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    claim, jobs = SUITES[name]
    t0 = time.monotonic()
    res = _run_cases(claim, name, jobs(max_order))
    res.elapsed = time.monotonic() - t0
    return res


def run_all(max_order=200):
    return [run_suite(name, max_order=max_order) for name in SUITES]

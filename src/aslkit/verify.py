"""Named verification suites over the group catalog.

Each suite checks one structural statement on concrete groups and returns
its cases sorted by case id. Cases run one after another in the calling
thread. They share the unsynchronized per-group memos and the catalog cache,
and under the interpreter lock pure-Python cases gain nothing from a pool.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    GroupAction,
    Homomorphism,
    Subgroup,
    direct_product_many,
    fiber_product,
    find_isomorphism,
    full_subgroup,
    quotient,
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
from .fpmod import LinearAction, as_group_action, coset_space, orbit_hypothesis, \
    unipotent_derived_length, v_chain
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
from .normal import all_normal_subgroups, product_normal_decomposition
from .oracle import oracle_D, oracle_length, oracle_normal_subgroups
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


@dataclass(frozen=True)
class Case:
    id: str
    ok: bool
    detail: str


@dataclass
class SuiteResult:
    suite: str
    claim: str
    cases: list
    elapsed: float = field(default=0.0, compare=False)  # seconds, whole suite

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


# -- individual suites -----------------------------------------------------------


def suite_log_length(max_order=200):
    claim = "abelian-simple length is at most log2 of the group order"
    jobs = []
    for name, g in catalog(max_order):
        def fn(g=g):
            lng = abelian_simple_length(g)
            bound = math.log2(g.order) if g.order > 1 else 0
            return lng <= bound + 1e-9, f"l={lng} |G|={g.order}"
        jobs.append((name, fn))
    return _run_cases(claim, "log-length", jobs)


def suite_solvable_coincidence(max_order=200):
    claim = ("for solvable groups the generalized derived series equals "
             "the derived series term by term")
    jobs = []
    for name, g in catalog(max_order):
        def fn(g=g):
            der = derived_series(g)
            if not der.terminates:
                return True, "not solvable; vacuous"
            gds = generalized_derived_series(g)
            same = all(a.member_set == b.member_set
                       for a, b in zip(der.terms, gds.terms)) and \
                len(der.terms) == len(gds.terms)
            return same, f"orders {gds.orders()}"
        jobs.append((name, fn))
    return _run_cases(claim, "solvable-coincidence", jobs)


def suite_quotient_law(max_order=48):
    """Image law plus the trivial-intersection family law.

    The family law is checked on all lattice pairs with trivial intersection
    and on the full proper-normal family; that covers every family: any
    family with trivial intersection contains a two-step refinement through
    lattice intersections, and quotient lengths never exceed l(G).
    """
    claim = ("quotient maps send series terms to series terms; l(G) is the "
             "max of l(G/N) over any trivial-intersection family of normals")
    jobs = []
    for name, g in catalog(max_order):
        def fn(g=g):
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
                    src = gds.terms[i] if i < len(gds.terms) else gds.terms[-1]
                    image = {pi.mapping[x] for x in src.members}
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
        jobs.append((name, fn))
    return _run_cases(claim, "quotient-law", jobs)


def suite_normal_law(max_order=48):
    claim = ("series terms of a normal subgroup are contained in the "
             "group's series terms, so l(N) <= l(G)")
    jobs = []
    for name, g in catalog(max_order):
        def fn(g=g):
            gds = generalized_derived_series(g)
            for nsub in all_normal_subgroups(g):
                ng = nsub.as_group()
                nser = generalized_derived_series(ng)
                if nser.length > gds.length:
                    return False, f"l(N) > l(G) at |N|={nsub.order}"
                for i, nterm in enumerate(nser.terms):
                    up = {ng.parent_indices[x] for x in nterm.members}
                    gterm = gds.terms[i] if i < len(gds.terms) else gds.terms[-1]
                    if not up <= gterm.member_set:
                        return False, f"containment fails at step {i}"
            return True, f"l(G)={gds.length}"
        jobs.append((name, fn))
    return _run_cases(claim, "normal-law", jobs)


def suite_extension_law(max_order=48):
    claim = "l(G) <= l(N) + l(G/N) for every normal subgroup"
    jobs = []
    for name, g in catalog(max_order):
        def fn(g=g):
            lg = abelian_simple_length(g)
            for nsub in all_normal_subgroups(g):
                q, _ = quotient(g, nsub)
                ln = abelian_simple_length(nsub.as_group())
                lq = abelian_simple_length(q)
                if lg > ln + lq:
                    return False, f"{lg} > {ln}+{lq} at |N|={nsub.order}"
            return True, f"l(G)={lg}"
        jobs.append((name, fn))
    return _run_cases(claim, "extension-law", jobs)


def _sign_hom(sym, c2):
    mapping = []
    for i in range(sym.order):
        perm = sym.value(i)
        parity = 0
        seen = [False] * len(perm)
        for s in range(len(perm)):
            if seen[s]:
                continue
            length = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                length += 1
            parity ^= (length - 1) & 1
        mapping.append(parity)
    return Homomorphism(sym, c2, mapping)


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
    rot = next(i for i in range(8) if d4.element_order(i) == 4)
    rot_sub = subgroup_generated(d4, [rot], normal=True)
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


def suite_fiber_law(max_order=None):
    claim = "fiber products satisfy l(GxKH) <= max(l(G), l(H))"
    jobs = []
    for name, g, h, alpha, beta in fiber_triples():
        def fn(g=g, h=h, alpha=alpha, beta=beta):
            fp = fiber_product(alpha, beta)
            lf = abelian_simple_length(fp)
            bound = max(abelian_simple_length(g), abelian_simple_length(h))
            return lf <= bound, f"l={lf} bound={bound} |GxKH|={fp.order}"
        jobs.append((name, fn))
    return _run_cases(claim, "fiber-law", jobs)


def suite_product_decomposition(max_order=None):
    claim = ("every normal subgroup of (abelian) x (nonabelian simples) is "
             "(N n A) x a subproduct, and the quotient matches the "
             "complementary structure")
    families = [
        ("C6 x A5", cyclic_group(6), [alternating_group(5)]),
        ("C2 x A5", cyclic_group(2), [alternating_group(5)]),
        ("C4 x A5", cyclic_group(4), [alternating_group(5)]),
        ("C1 x A5 x A5", cyclic_group(1),
         [alternating_group(5), alternating_group(5)]),
        ("C2 x A5 x A5", cyclic_group(2),
         [alternating_group(5), alternating_group(5)]),
    ]
    jobs = []
    for name, a, simples in families:
        def fn(a=a, simples=simples):
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
        jobs.append((name, fn))
    return _run_cases(claim, "product-decomposition", jobs)


def _s3_order2_subgroup():
    s3 = symmetric_group(3)
    g0elt = next(i for i in range(6) if s3.label(i) == "(1 2)")
    return s3, subgroup_generated(s3, [g0elt])


def _inversion_action(cn, actor_group):
    """Order-2 actor inverting a cyclic group."""
    def apply(a, t):
        return a if t == 0 else cn.inv(a)
    return GroupAction(actor_group, cn, apply)


def suite_exact_sequence(max_order=None):
    claim = ("reducing A modulo an invariant normal A0 gives a wreath "
             "surjection with kernel Ind(A0), and composite quotients "
             "compose exactly")
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
        ind_a0 = {f * s3.order for f in range(w.ind_group.order)
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

    return _run_cases(claim, "exact-sequence", jobs)


def suite_msigma(max_order=None):
    claim = ("coset count of G0 in G^(m) G0 above 2^m forces a nontrivial "
             "element of the (m+1)-st series term inside Ind")
    jobs = []

    def case_c3():
        c3 = cyclic_group(3)
        w = msigma_witness(cyclic_group(2), c3, trivial_subgroup(c3), m=0)
        return w is not None, f"witness index {w.index if w else None}"
    jobs.append(("A=C2 G=C3 G0=1 m=0", case_c3))

    def case_c2():
        c2 = cyclic_group(2)
        w = msigma_witness(cyclic_group(2), c2, trivial_subgroup(c2), m=0)
        return w is not None, f"witness index {w.index if w else None}"
    jobs.append(("A=C2 G=C2 G0=1 m=0", case_c2))

    def case_a4():
        a4 = alternating_group(4)
        c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
        g0 = subgroup_generated(a4, [c3elt])
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

    return _run_cases(claim, "msigma", jobs)


@lru_cache(maxsize=None)
def _a5_wreath_c2():
    """The order-7200 reference wreath, built once per process."""
    c2 = cyclic_group(2)
    return twisted_wreath_product(alternating_group(5), c2,
                                  trivial_subgroup(c2))


@lru_cache(maxsize=None)
def _a5_wreath_s3():
    s3 = symmetric_group(3)
    c3elt = next(i for i in range(6) if s3.element_order(i) == 3)
    g0 = subgroup_generated(s3, [c3elt])
    return twisted_wreath_product(alternating_group(5), s3, g0)


def suite_simple_nonabelian(max_order=None):
    claim = ("for A a product of copies of one nonabelian simple group, the "
             "wreath series term is Ind x| (series term of G)")
    jobs = []

    def big_case():
        w = _a5_wreath_c2()
        series = generalized_derived_series(w.group, max_terms=2)
        h1 = series.terms[1]
        ok = h1.order == 3600 and h1.member_set == w.ind.member_set
        return ok, f"H^(1) order {h1.order}, equals Ind: {ok}"
    jobs.append(("A=A5 G=C2 G0=1", big_case))

    def nontrivial_term_case():
        # [G^(0) G0 : G0] = [S3 : A3] = 2 > 1, so H^(1) = Ind x| G^(1)
        w = _a5_wreath_s3()
        s3 = w.g
        series = generalized_derived_series(w.group, max_terms=2)
        h1 = series.terms[1]
        g1 = generalized_derived_series(s3).terms[1]
        want = {f * s3.order + s for f in range(w.ind_group.order)
                for s in g1.members}
        ok = h1.member_set == want
        return ok, f"H^(1) = Ind x| G^(1), order {h1.order}"
    jobs.append(("A=A5 G=S3 G0=A3", nontrivial_term_case))

    return _run_cases(claim, "simple-nonabelian", jobs)


def suite_nontrivial_action(max_order=None):
    claim = ("for a nontrivial irreducible F_p module A of G0, the wreath "
             "derived subgroup is Ind x| G'")
    jobs = []

    def case96():
        s3 = symmetric_group(3)
        c3elt = next(i for i in range(6) if s3.element_order(i) == 3)
        g0 = subgroup_generated(s3, [c3elt])
        lin = LinearAction(g0.as_group(), 2, 2, [((0, 1), (1, 1))])
        gact = as_group_action(lin)
        w = twisted_wreath_product(gact.space, s3, g0, gact)
        if w.group.order != 96:
            return False, f"|H| = {w.group.order} != 96"
        from .core import commutator_subgroup
        hp = commutator_subgroup(w.group)
        gp = commutator_subgroup(s3)
        want = {f * s3.order + s for f in range(w.ind_group.order)
                for s in gp.members}
        ok = hp.member_set == want
        return ok, f"|H'| = {hp.order} = |Ind| * |G'| = {16 * gp.order}"
    jobs.append(("p=2 A=F2^2 G0=C3 G=S3", case96))

    return _run_cases(claim, "nontrivial-action", jobs)


def suite_trvrep(max_order=48):
    """Orbit hypothesis forces a nonzero chain term.

    G0 runs over the distinct cyclic subgroups generated by one conjugacy
    class representative each, plus the trivial and full subgroups; full
    subgroup enumeration is out of scope, and these already give every orbit
    size pattern the statement quantifies over at this scale.
    """
    claim = "an orbit of G^(m) larger than 2^m forces V_(m+1) nonzero"
    jobs = []
    for name, g in catalog(max_order):
        def fn(g=g):
            from .core import conjugacy_classes
            subs = {frozenset([0]): trivial_subgroup(g)}
            for cls in conjugacy_classes(g):
                sub = subgroup_generated(g, [cls[0]])
                subs.setdefault(sub.member_set, sub)
            subs.setdefault(frozenset(range(g.order)), full_subgroup(g))
            checked = 0
            for sub in subs.values():
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
        jobs.append((name, fn))

    def fixed_dims():
        c2 = cyclic_group(2)
        x2 = coset_space(c2, trivial_subgroup(c2))
        dims = [v.dim for v in v_chain(c2, x2, 2, 2)]
        if dims != [2, 1, 0]:
            return False, f"C2 dims {dims}"
        c1 = cyclic_group(1)
        from .fpmod import GSet
        x3 = GSet(c1, 3, [])
        if [v.dim for v in v_chain(c1, x3, 2, 1)] != [3, 0]:
            return False, "trivial group dims"
        a4 = alternating_group(4)
        c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
        g0 = subgroup_generated(a4, [c3elt])
        x4 = coset_space(a4, g0)
        chain = v_chain(a4, x4, 2, 2)
        if chain[2].dim == 0:
            return False, "A4 on A4/C3: V_2 = 0"
        return True, "fixed chain examples"
    jobs.append(("fixed-instances", fixed_dims))
    return _run_cases(claim, "trvrep", jobs)


def suite_kernel(max_order=None):
    claim = ("the kernel of entrywise reduction GL_n(Z/l^k) -> GL_n(Z/l) "
             "is an l-group of order l^(n^2 (k-1))")
    jobs = []
    for ell in (2, 3):
        def fn(ell=ell):
            ker = residue_kernel(2, ell, 2)
            ok = ker.order == ell ** 4 and is_l_group(ker.as_group(), ell)
            return ok, f"kernel order {ker.order}"
        jobs.append((f"n=2 l={ell} k=2", fn))

    def k1():
        ker = residue_kernel(2, 2, 1)
        return ker.order == 1, "k=1 reduction is the identity"
    jobs.append(("n=2 l=2 k=1", k1))
    return _run_cases(claim, "kernel", jobs)


def suite_lp(max_order=None):
    claim = ("filtration search succeeds and validates on the reference "
             "matrix groups; the residual length obeys log2(J) + 2")
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

    return _run_cases(claim, "lp", jobs)


def _det2(M, m):
    return (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % m


def suite_sn_bound(max_order=None):
    claim = ("symmetric groups up to degree 7 have length at most 3; "
             "transitive degree-d groups have length at most log2(d!)")
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
    return _run_cases(claim, "sn-bound", jobs)


def suite_unipotent(max_order=None):
    claim = "unitriangular groups U(n,p) have derived length at most n-1"
    jobs = []
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            def fn(n=n, p=p):
                dl = unipotent_derived_length(n, p)
                return dl <= n - 1, f"derived length {dl}"
            jobs.append((f"U({n},{p})", fn))
    return _run_cases(claim, "unipotent", jobs)


def suite_oracle_agreement(max_order=100, oracle_cap=16):
    """Groups are selected by the class cap, but the oracle itself runs with
    the cap lifted to the order bound: derived steps of a small-class group
    can have more classes than the group itself (D3 x D7 descends to C21),
    and the pruned enumeration handles them exhaustively either way."""
    from .core import conjugacy_classes
    claim = ("join-closure lattices, D, and length agree with the "
             "definition-direct brute-force oracle")
    interior_cap = max(oracle_cap, max_order)
    jobs = []
    for name, g in catalog(max_order):
        if len(conjugacy_classes(g)) > oracle_cap:
            continue
        def fn(g=g):
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
        jobs.append((name, fn))
    return _run_cases(claim, "oracle-agreement", jobs)


SUITES = {
    "log-length": suite_log_length,
    "solvable-coincidence": suite_solvable_coincidence,
    "quotient-law": suite_quotient_law,
    "normal-law": suite_normal_law,
    "fiber-law": suite_fiber_law,
    "extension-law": suite_extension_law,
    "product-decomposition": suite_product_decomposition,
    "exact-sequence": suite_exact_sequence,
    "msigma": suite_msigma,
    "simple-nonabelian": suite_simple_nonabelian,
    "nontrivial-action": suite_nontrivial_action,
    "trvrep": suite_trvrep,
    "kernel": suite_kernel,
    "lp": suite_lp,
    "sn-bound": suite_sn_bound,
    "unipotent": suite_unipotent,
    "oracle-agreement": suite_oracle_agreement,
}

# suites whose catalog sweep honors --max-order
_MAX_ORDER_SUITES = {
    "log-length": None, "solvable-coincidence": None,
    "quotient-law": 48, "normal-law": 48, "extension-law": 48,
    "trvrep": 48, "oracle-agreement": 100,
}


def run_suite(name, max_order=200, oracle_cap=16):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn = SUITES[name]
    kwargs = {}
    if name in _MAX_ORDER_SUITES:
        cap = _MAX_ORDER_SUITES[name]
        kwargs["max_order"] = max_order if cap is None else min(max_order, cap)
    if name == "oracle-agreement":
        kwargs["oracle_cap"] = oracle_cap
    t0 = time.monotonic()
    res = fn(**kwargs)
    res.elapsed = time.monotonic() - t0
    return res


def run_all(max_order=200, oracle_cap=16):
    return [run_suite(name, max_order=max_order, oracle_cap=oracle_cap)
            for name in SUITES]

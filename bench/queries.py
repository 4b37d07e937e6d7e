"""Query list of the `random-queries` workload.

The list is the fixed one-shot queries plus seeded random permutation
groups of degree <= 7 with one or two generators. Generation is pure
Python and emits only valid specs: generators are distinct non-identity
permutations written as disjoint cycles of length >= 2, and the group
order is computed here so that a group outside its size class is drawn
again.

Seeded queries are stratified: every seed asks the same number of
`length`, `series`, `normals` and `vchain` queries in each size class
(group order, or coset count for `vchain`), so two seeds load the program
alike and differ only in the groups drawn. Without the classes the number
of groups above order 120 ranged from 3 to 10 a seed, and p90 with it.
"""

import random

FIXED = [[cmd, spec]
         for spec in ("S4", "SL(2,5)", "C6 x A5")
         for cmd in ("length", "series", "normals")]
# `normals GLZ(2,3,2)` is left out: it exits with code 3 at the class cap
FIXED += [["length", "GLZ(2,3,2)"], ["series", "GLZ(2,3,2)"]]

COMMANDS = ("length", "series", "normals", "vchain")
# (lowest, highest size, degrees that reach it, queries a command): with
# the 11 fixed queries a pass has 103, so ten answers lie beyond p90.
# Orders stop at 720 (S6): S7 and A7 queries take 1.3-1.9 s each. Coset
# spaces stop at 120 points: v_chain cost is cubic in the coset count.
ORDER_CLASSES = ((2, 24, (3, 4, 5, 6, 7), 15), (25, 120, (5, 6, 7), 5),
                 (121, 720, (6, 7), 3))
VCHAIN_CLASSES = ((2, 24, (3, 4, 5, 6, 7), 15), (25, 60, (4, 5, 6, 7), 5),
                  (61, 120, (5, 6, 7), 3))
ORDER_CAP = 720


def _random_perm(rng, degree):
    while True:
        img = list(range(degree))
        rng.shuffle(img)
        if img != list(range(degree)):
            return tuple(img)


def _cycles(perm):
    """Disjoint-cycle word of a non-identity permutation, 1-based."""
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = perm[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out)


def _order(gens):
    """Order of the permutation group generated by gens (breadth first)."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > ORDER_CAP:
                        return len(seen)
        frontier = nxt
    return len(seen)


def _perm_order(perm):
    n, x, k = len(perm), perm, 1
    ident = tuple(range(n))
    while x != ident:
        x = tuple(perm[i] for i in x)
        k += 1
    return k


def _draw(rng, cmd, size_class):
    """One query in the size class; None when the draw must be redone."""
    low, high, degrees, _ = size_class
    degree, ngens = rng.choice(degrees), rng.choice((1, 2))
    gens = [_random_perm(rng, degree) for _ in range(ngens)]
    if len(set(gens)) < ngens:
        return None
    order = _order(gens)
    spec = f"perm({degree}; " + ", ".join(_cycles(g) for g in gens) + ")"
    if cmd != "vchain":
        return [cmd, spec] if low <= order <= high else None
    # the coset space of <x> for a generator x, or of the trivial subgroup
    if order > ORDER_CAP:
        return None
    options = [(order // _perm_order(g), _cycles(g)) for g in gens]
    options.append((order, "1"))
    fitting = [lab for size, lab in options if low <= size <= high]
    if not fitting:
        return None
    return ["vchain", "--g", spec, "--x", "coset:" + rng.choice(fitting),
            "-p", str(rng.choice((2, 3))), "-d", str(rng.randint(1, 3))]


def seeded_queries(seed):
    rng = random.Random(seed)
    out = []
    for cmd in COMMANDS:
        for size_class in (VCHAIN_CLASSES if cmd == "vchain"
                           else ORDER_CLASSES):
            for _ in range(size_class[3]):
                query = None
                while query is None:
                    query = _draw(rng, cmd, size_class)
                out.append(query)
    return out


def query_list(seed):
    """All queries of one pass, in the seeded order they are sent."""
    queries = [list(q) for q in FIXED] + seeded_queries(seed)
    random.Random(seed).shuffle(queries)
    return [["--json"] + q for q in queries]


if __name__ == "__main__":
    import sys
    for q in query_list(int(sys.argv[1]) if len(sys.argv) > 1 else 0):
        print(" ".join(q))

"""Named group families: cyclic, dihedral, quaternion, symmetric, alternating."""

from __future__ import annotations

from .core import CLOSURE_CAP, Group, check_order, group_from_perm_generators
from .errors import UnknownConstructor


def cyclic_group(n, closure_cap=CLOSURE_CAP):
    """C_n with residue values and additive labels 0..n-1."""
    if n < 1:
        raise UnknownConstructor(f"C{n} undefined")
    check_order(closure_cap, f"C{n}", (n,))
    return Group(range(n), lambda a, b: (a + b) % n, lambda a: (-a) % n,
                 str, name=f"C{n}", generators=[1 % n] if n > 1 else [],
                 kind="cyclic")


def klein_group(closure_cap=CLOSURE_CAP):
    """V4 as the regular degree-4 permutation group."""
    return group_from_perm_generators(4, ["(1 2)(3 4)", "(1 3)(2 4)"],
                                      name="V4", closure_cap=closure_cap)


def dihedral_group(n, closure_cap=CLOSURE_CAP):
    """Dihedral group of order 2n acting on n points (n >= 3; D2 = V4, D1 = C2)."""
    if n < 1:
        raise UnknownConstructor(f"D{n} undefined")
    check_order(closure_cap, f"D{n}", (2, n))
    if n == 1:
        return group_from_perm_generators(2, ["(1 2)"], name="D1",
                                          closure_cap=closure_cap)
    if n == 2:
        G = klein_group(closure_cap=closure_cap)
        G.name = "D2"
        return G
    rot = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    refl_cycles = "".join(f"({1 + i} {n + 1 - i})"
                          for i in range(1, (n + 1) // 2))
    return group_from_perm_generators(n, [rot, refl_cycles], name=f"D{n}",
                                      closure_cap=closure_cap)


def symmetric_group(n, closure_cap=CLOSURE_CAP):
    if n < 1:
        raise UnknownConstructor(f"S{n} undefined")
    check_order(closure_cap, f"S{n}", range(2, n + 1))
    if n == 1:
        return group_from_perm_generators(1, [], name="S1")
    gens = ["(1 2)"]
    if n > 2:
        gens.append("(" + " ".join(str(i) for i in range(1, n + 1)) + ")")
    return group_from_perm_generators(n, gens, name=f"S{n}",
                                      closure_cap=closure_cap)


def alternating_group(n, closure_cap=CLOSURE_CAP):
    if n < 1:
        raise UnknownConstructor(f"A{n} undefined")
    check_order(closure_cap, f"A{n}", range(3, n + 1))
    if n <= 2:
        return group_from_perm_generators(max(n, 1), [], name=f"A{n}")
    gens = [f"({i} {i + 1} {i + 2})" for i in range(1, n - 1)]
    return group_from_perm_generators(n, gens, name=f"A{n}",
                                      closure_cap=closure_cap)


def quaternion_group():
    """Q8 with labels 1, -1, i, -i, j, -j, k, -k."""
    # Elements as (sign, axis) with axis in {1, i, j, k}; the axis products
    # follow the usual quaternion rules.
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    values = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
              (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]

    def vmul(a, b):
        s, ax = prod[(a[1], b[1])]
        return (s * a[0] * b[0], ax)

    def vinv(a):
        if a[1] == "1":
            return a
        return (-a[0], a[1])

    def labeler(a):
        if a[0] == 1:
            return a[1]
        return "-" + a[1]

    return Group(values, vmul, vinv, labeler, name="Q8",
                 generators=[2, 4], kind="quaternion")

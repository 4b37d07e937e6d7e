"""Parser and evaluator for the group-spec mini-language.

Grammar (EBNF, also documented in the README):

    spec     = product , [ "/" , closure ] ;
    product  = atom , { "x" , atom } ;
    atom     = named | permgrp | matgrp | "(" , spec , ")" ;
    named    = ( "C" | "D" | "S" | "A" ) , integer
             | "Q8"
             | "GL" , "(" , integer , "," , integer , ")"
             | "SL" , "(" , integer , "," , integer , ")"
             | "U"  , "(" , integer , "," , integer , ")"
             | "GLZ" , "(" , integer , "," , integer , "," , integer , ")" ;
    permgrp  = "perm" , "(" , integer , ";" , cycles , { "," , cycles } , ")" ;
    cycles   = { "(" , { integer } , ")" } ;
    matgrp   = "mat" , "(" , ring , ";" , matrix , { "," , matrix } , ")" ;
    ring     = ( "F" | "Z" ) , integer ;
    matrix   = "[" , row , { "," , row } , "]" ;
    row      = "[" , integer , { "," , integer } , "]" ;
    closure  = "normal-closure-of" , "(" , label , { "," , label } , ")" ;

A label is a raw element label of the base group (commas split only at the
top parenthesis level). One normalization pass makes unparse(parse(s))
idempotent.
"""

from __future__ import annotations

import re

from .core import (
    CLOSURE_CAP,
    FrozenRecord,
    check_degree,
    direct_product_many,
    group_from_perm_generators,
    normal_closure,
    perm_from_cycles,
    cycle_label,
    quotient,
    set_field,
)
from .errors import (
    CapExceeded,
    GroupSpecError,
    MalformedCycle,
    MalformedCycleInSpec,
    NotAFieldElement,
    UnknownConstructor,
)
from .families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from .matgroups import (
    FIELD_SIZE_CAP,
    MatrixGroupSpec,
    PrimePowerField,
    ResidueRing,
    gl_group,
    glz_group,
    mat_label,
    matrix_group,
    prime_power,
    sl_group,
    unitriangular_group,
)


class Named(FrozenRecord, compare=("name", "args")):
    """A named constructor. `pos`, the (line, column) where the spec wrote
    it or None, locates an error raised while the group is built; it is not
    compared, so parse(unparse(node)) == node."""
    __slots__ = ("name", "args", "pos")

    def __init__(self, name, args, pos=None):
        set_field(self, "name", name)
        set_field(self, "args", args)
        set_field(self, "pos", pos)


class PermSpec(FrozenRecord):
    __slots__ = ("degree", "cycles")

    def __init__(self, degree, cycles):
        set_field(self, "degree", degree)
        set_field(self, "cycles", cycles)  # normalized words, one a generator


class MatSpec(FrozenRecord, compare=("ring", "matrices")):
    """A matrix group; `pos` is as in Named."""
    __slots__ = ("ring", "matrices", "pos")

    def __init__(self, ring, matrices, pos=None):
        set_field(self, "ring", ring)
        set_field(self, "matrices", matrices)  # tuples of row tuples
        set_field(self, "pos", pos)


class ProdSpec(FrozenRecord):
    __slots__ = ("factors",)

    def __init__(self, factors):
        set_field(self, "factors", factors)


class QuotSpec(FrozenRecord):
    __slots__ = ("base", "labels")

    def __init__(self, base, labels):
        set_field(self, "base", base)
        set_field(self, "labels", labels)


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _linecol(self, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message, pos=None):
        line, col = self._linecol(pos)
        raise GroupSpecError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def try_eat(self, ch):
        self.skip_ws()
        if self.text.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def _token(self, pattern, what):
        """The text of pattern matched after any whitespace, and its start."""
        self.skip_ws()
        m = re.match(pattern, self.text[self.pos:])
        if not m:
            self.error(f"expected {what}")
        self.pos += m.end()
        return m.group(0), self.pos - m.end()

    def name(self):
        return self._token(r"[A-Za-z][A-Za-z0-9-]*", "a name")[0]

    def integer(self):
        return self.to_int(*self._token(r"\d+", "an integer"))

    def to_int(self, digits, pos):
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.error(f"integer of {len(digits)} digits is too long", pos)

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


_NAMED_RE = re.compile(r"^([A-Za-z]+?)(\d+)$")


def parse_group_spec(text):
    """Parse a group spec; raises GroupSpecError with line/column on failure."""
    cur = _Cursor(text)
    node = _parse_spec(cur)
    if not cur.at_end():
        cur.error("trailing input after group spec")
    return node


def _parse_spec(cur):
    node = _parse_product(cur)
    if cur.try_eat("/"):
        cur.skip_ws()
        kw = cur.name()
        if kw != "normal-closure-of":
            cur.error("expected 'normal-closure-of' after '/'")
        cur.eat("(")
        labels = _parse_raw_labels(cur)
        return QuotSpec(node, tuple(labels))
    return node


def _parse_raw_labels(cur):
    """Raw label chunks up to the matching ')'."""
    start, depth = cur.pos, 0
    while True:
        if cur.pos >= len(cur.text):
            cur.error("unterminated normal-closure-of(...)")
        ch = cur.text[cur.pos]
        cur.pos += 1
        if ch == ")" and depth == 0:
            break
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
    labels = split_labels(cur.text[start:cur.pos - 1])
    if not labels:
        cur.error("normal-closure-of needs at least one element label")
    return labels


def split_labels(text):
    """Element labels separated by commas outside parentheses and brackets;
    an empty last label is dropped."""
    labels = []
    depth = 0
    buf = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            labels.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        labels.append(tail)
    return labels


def _parse_product(cur):
    factors = [_parse_atom(cur)]
    while True:
        save = cur.pos
        cur.skip_ws()
        if cur.text.startswith("x", cur.pos) and not re.match(
                r"[A-Za-z0-9]", cur.text[cur.pos + 1:cur.pos + 2] or ""):
            cur.pos += 1
            factors.append(_parse_atom(cur))
        else:
            cur.pos = save
            break
    if len(factors) == 1:
        return factors[0]
    return ProdSpec(tuple(factors))


def _parse_atom(cur):
    if cur.try_eat("("):
        node = _parse_spec(cur)
        cur.eat(")")
        return node
    start = cur.pos
    name = cur.name()
    pos = cur._linecol(start)
    if name == "perm":
        return _parse_perm(cur)
    if name == "mat":
        return _parse_mat(cur, pos)
    if name in ("GL", "SL", "U", "GLZ"):
        cur.eat("(")
        args = [cur.integer()]
        while cur.try_eat(","):
            args.append(cur.integer())
        cur.eat(")")
        want = 3 if name == "GLZ" else 2
        if len(args) != want:
            cur.error(f"{name} takes {want} arguments", pos=start)
        return Named(name, tuple(args), pos)
    m = _NAMED_RE.match(name)
    if m and m.group(1) in ("C", "D", "S", "A", "Q"):
        letter = m.group(1)
        num = cur.to_int(m.group(2), cur.pos - len(m.group(2)))
        if letter != "Q" or num == 8:
            return Named(letter, (num,), pos)
    raise UnknownConstructor(f"unknown constructor {name!r}", *pos)


def _parse_perm(cur):
    cur.eat("(")
    cur.skip_ws()
    start = cur.pos
    degree = cur.integer()
    if degree < 1:
        cur.error("degree must be positive", pos=start)
    check_degree(CLOSURE_CAP, degree)  # the cycle words are made at degree
    cur.eat(";")
    words = []
    while True:
        cur.skip_ws()
        start = cur.pos
        word = _parse_cycle_word(cur)
        try:
            words.append(cycle_label(perm_from_cycles(degree, word)))
        except MalformedCycle as exc:
            raise MalformedCycleInSpec(str(exc), *cur._linecol(start)) \
                from None
        if not cur.try_eat(","):
            break
    cur.eat(")")
    return PermSpec(degree, tuple(words))


def _parse_cycle_word(cur):
    parts = []
    while cur.peek() == "(":
        cur.eat("(")
        pts = []  # "()" is the identity, as unparse writes it
        while cur.peek().isdigit():
            pts.append(cur.integer())
        cur.eat(")")
        parts.append("(" + " ".join(str(p) for p in pts) + ")")
    if not parts:
        cur.error("expected a cycle word")
    return "".join(parts)


def _parse_mat(cur, pos):
    cur.eat("(")
    ring = cur.name()
    if not re.match(r"^[FZ]\d+$", ring):
        cur.error(f"unknown ring {ring!r}; use F<q> or Z<m>")
    size = cur.to_int(ring[1:], cur.pos - len(ring) + 1)  # not too long
    # PrimePowerField.element refuses an entry of F q, q = p^e with e > 1,
    # outside 0..q-1; refusing it here gives the entry's position. A field
    # past the cap or of no prime-power size is refused when it is built.
    pe = prime_power(size) if ring[0] == "F" and size <= FIELD_SIZE_CAP \
        else None
    bound = size if pe is not None and pe[1] > 1 else None
    cur.eat(";")
    mats = [_parse_matrix(cur, bound)]
    while cur.try_eat(","):
        mats.append(_parse_matrix(cur, bound))
    cur.eat(")")
    return MatSpec(ring, tuple(mats), pos)


def _parse_matrix(cur, bound):
    cur.eat("[")
    rows = [_parse_row(cur, bound)]
    while cur.try_eat(","):
        rows.append(_parse_row(cur, bound))
    cur.eat("]")
    if any(len(r) != len(rows) for r in rows):
        cur.error("matrix must be square")
    return tuple(rows)


def _parse_row(cur, bound):
    cur.eat("[")
    xs = [_parse_entry(cur, bound)]
    while cur.try_eat(","):
        xs.append(_parse_entry(cur, bound))
    cur.eat("]")
    return tuple(xs)


def _parse_entry(cur, bound):
    """A matrix entry, refused from `bound` on when that is not None."""
    cur.skip_ws()
    start = cur.pos
    x = cur.integer()
    if bound is not None and x >= bound:
        raise NotAFieldElement(f"entry {x} is not an element of F{bound}; "
                               f"use 0..{bound - 1}", *cur._linecol(start))
    return x


# -- unparse -----------------------------------------------------------------


def unparse(node):
    """Canonical text form; idempotent after one normalization pass."""
    if isinstance(node, Named):
        if node.name in ("C", "D", "S", "A"):
            return f"{node.name}{node.args[0]}"
        if node.name == "Q":
            return "Q8"
        return f"{node.name}({','.join(str(a) for a in node.args)})"
    if isinstance(node, PermSpec):
        return f"perm({node.degree}; " + ", ".join(node.cycles) + ")"
    if isinstance(node, MatSpec):
        return f"mat({node.ring}; " + ", ".join(
            mat_label(m) for m in node.matrices) + ")"
    if isinstance(node, ProdSpec):
        return " x ".join(
            f"({unparse(f)})" if isinstance(f, (ProdSpec, QuotSpec))
            else unparse(f) for f in node.factors)
    if isinstance(node, QuotSpec):
        base = unparse(node.base)
        if isinstance(node.base, QuotSpec):
            base = f"({base})"
        return f"{base} / normal-closure-of(" + ", ".join(node.labels) + ")"
    raise TypeError(f"not a spec node: {node!r}")


# -- evaluation ----------------------------------------------------------------


def resolve_label(G, label):
    """Element index for a label: exact match, else cycle normalization."""
    label = label.strip()
    try:
        return G.labels.index(label)
    except ValueError:
        pass
    if G.kind == "perm":
        try:
            value = perm_from_cycles(G.degree, label)
            return G.index_of(value)
        except (MalformedCycle, KeyError):
            pass
    if G.kind == "cyclic" and re.match(r"^\d+$", label):
        return int(label) % G.order
    raise GroupSpecError(f"no element labelled {label!r} in {G.name}")


def evaluate(node, closure_cap=CLOSURE_CAP):
    """Build the Group a spec node denotes. A GroupSpecError raised while a
    Named or MatSpec node is built is raised again at the node's position."""
    if isinstance(node, (Named, MatSpec)):
        build = _eval_named if isinstance(node, Named) else _eval_mat
        try:
            return build(node, closure_cap)
        except GroupSpecError as exc:
            if node.pos is None:
                raise
            raise type(exc)(exc.message, *node.pos) from None
    if isinstance(node, PermSpec):
        return group_from_perm_generators(
            node.degree, node.cycles, closure_cap=closure_cap,
            name=unparse(node))
    if isinstance(node, ProdSpec):
        factors = [evaluate(f, closure_cap) for f in node.factors]
        return direct_product_many(factors, closure_cap=closure_cap)
    if isinstance(node, QuotSpec):
        G = evaluate(node.base, closure_cap)
        seeds = [resolve_label(G, lab) for lab in node.labels]
        N = normal_closure(G, seeds)
        Q, _ = quotient(G, N, name=unparse(node))
        return Q
    raise TypeError(f"not a spec node: {node!r}")


def _eval_named(node, closure_cap):
    name, args = node.name, node.args
    if name == "C":
        return cyclic_group(args[0], closure_cap=closure_cap)
    if name == "D":
        return dihedral_group(args[0], closure_cap=closure_cap)
    if name == "S":
        return symmetric_group(args[0], closure_cap=closure_cap)
    if name == "A":
        return alternating_group(args[0], closure_cap=closure_cap)
    if name == "Q":
        return quaternion_group()
    if name == "GL":
        return gl_group(*args, closure_cap=closure_cap)
    if name == "SL":
        return sl_group(*args, closure_cap=closure_cap)
    if name == "U":
        return unitriangular_group(*args, closure_cap=closure_cap)
    if name == "GLZ":
        return glz_group(*args, closure_cap=closure_cap)
    raise UnknownConstructor(f"unknown constructor {name!r}")


def _eval_mat(node, closure_cap):
    ring = _eval_ring(node.ring, closure_cap)
    n = len(node.matrices[0])
    spec = MatrixGroupSpec(n, ring, node.matrices)
    return matrix_group(spec, name=unparse(node), closure_cap=closure_cap)


def _eval_ring(token, closure_cap):
    kind, size = token[0], int(token[1:])
    if kind == "F":
        return PrimePowerField(size)
    if size > closure_cap:
        raise CapExceeded(f"residue modulus {size} exceeds cap {closure_cap}")
    if prime_power(size) is None:
        raise UnknownConstructor(
            f"Z{size}: residue rings must have prime-power modulus")
    return ResidueRing(size)


def group_from_spec(text, closure_cap=CLOSURE_CAP):
    return evaluate(parse_group_spec(text), closure_cap)

"""The public library surface: removed keywords and attributes, and the
README sketch."""

import ast
import inspect
import pathlib
import re

import pytest

from aslkit import fpmod
from aslkit.core import (
    direct_product,
    fiber_product,
    find_isomorphism,
    full_subgroup,
    identity_hom,
    is_isomorphic,
    trivial_subgroup,
)
from aslkit.families import cyclic_group, symmetric_group
from aslkit.fpmod import (
    LinearAction,
    coinvariant_span,
    coset_space,
    is_irreducible,
    unipotent_derived_length,
    v_chain,
    vector_group,
)
from aslkit.matgroups import (
    LPFiltration,
    PrimePowerField,
    ResidueRing,
    corollary_decomposition,
    gl_group,
    glz_group,
)
from aslkit.normal import all_normal_subgroups
from aslkit.wreath import induced_group, twisted_wreath_product, \
    wreath_quotient

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _flip():
    return LinearAction(cyclic_group(2), 2, 2, [((0, 1), (1, 0))])


def _two_c2():
    return cyclic_group(2), cyclic_group(2)


def _s3_ids():
    h = identity_hom(symmetric_group(3))
    return h, h


def _wreath_args():
    c2 = cyclic_group(2)
    return c2, c2, trivial_subgroup(c2)


def _quotient_args():
    c2 = cyclic_group(2)
    return c2, full_subgroup(c2), c2, trivial_subgroup(c2)


def _vchain_args():
    c2 = cyclic_group(2)
    return c2, coset_space(c2, trivial_subgroup(c2)), 2, 1


# each removed keyword with arguments its function accepts without it
REMOVED = [
    (v_chain, _vchain_args, "set_cap"),
    (is_irreducible, lambda: (_flip(),), "vector_cap"),
    (coinvariant_span, lambda: (_flip(),), "vector_cap"),
    (vector_group, lambda: (2, 2), "closure_cap"),
    (unipotent_derived_length, lambda: (2, 5), "closure_cap"),
    (induced_group, _wreath_args, "validate"),
    (twisted_wreath_product, _wreath_args, "validate"),
    (wreath_quotient, _quotient_args, "closure_cap"),
    (find_isomorphism, _two_c2, "cap"),
    (is_isomorphic, _two_c2, "cap"),
    (fiber_product, _s3_ids, "closure_cap"),
    (direct_product, _two_c2, "closure_cap"),
    (all_normal_subgroups, lambda: (cyclic_group(2),), "max_classes"),
    (corollary_decomposition,
     lambda: (full_subgroup(glz_group(2, 2, 1)), 2, 2), "closure_cap"),
]


@pytest.mark.parametrize("fn, args, keyword", REMOVED,
                         ids=[f"{f.__name__}-{k}" for f, _, k in REMOVED])
def test_removed_keyword_raises_type_error(fn, args, keyword):
    assert keyword not in inspect.signature(fn).parameters
    values = args()
    fn(*values)
    with pytest.raises(TypeError, match=keyword):
        fn(*values, **{keyword: None})


def _lp_filtration():
    full = full_subgroup(cyclic_group(2))
    return LPFiltration(full, full, full)


# each removed attribute or method with an object that once had it
REMOVED_ATTRIBUTES = [
    (lambda: PrimePowerField(4), "characteristic"),
    (lambda: PrimePowerField(4), "units"),
    (lambda: PrimePowerField(4), "_digits"),
    (lambda: PrimePowerField(4), "_undigits"),
    (lambda: PrimePowerField(4), "_poly_add"),
    (lambda: PrimePowerField(4), "_poly_mul"),
    (lambda: PrimePowerField(4), "_smallest_irreducible"),
    (lambda: PrimePowerField(4), "_poly_irreducible"),
    (lambda: PrimePowerField(4), "_poly_divides"),
    (lambda: ResidueRing(9), "characteristic"),
    (lambda: ResidueRing(9), "units"),
    (_lp_filtration, "certificates"),
    (lambda: fpmod, "_mat_mul"),
]


@pytest.mark.parametrize(
    "make, attribute", REMOVED_ATTRIBUTES,
    ids=[f"{type(m()).__name__}-{a}" for m, a in REMOVED_ATTRIBUTES])
def test_removed_attribute_raises_attribute_error(make, attribute):
    with pytest.raises(AttributeError):
        getattr(make(), attribute)


def test_removed_structure_keys():
    """Matrix groups keep only their dimension (and a GLZ group its
    residue ring's (l, k)); Ind keeps its coset representatives and their
    count."""
    assert gl_group(2, 2).structure == {"n": 2}
    assert glz_group(2, 2, 2).structure == {"n": 2, "residue": (2, 2)}
    c2 = cyclic_group(2)
    ind, _ = induced_group(c2, c2, trivial_subgroup(c2))
    assert ind.structure == {"reps": (0, 1), "m": 2}


def _sketch():
    text = README.read_text()
    block = re.search(r"## Library sketch\n+```python\n(.*?)```", text,
                      re.S)
    assert block, "README has no Library sketch code block"
    return block.group(1)


def test_readme_library_sketch_values():
    """Every sketch line that ends in a value comment evaluates to it."""
    source = _sketch()
    lines = source.splitlines()
    env = {}
    stated = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and hash_:
            got, comment = repr(eval(code, env)), comment.strip()
            assert comment == got or comment.startswith(got + ","), code
            stated.append(got)
        else:
            exec(code, env)
    assert stated == ["3", "(24, 12, 4, 1)", "8", "(24, 12)"]

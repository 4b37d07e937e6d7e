"""The public library surface: removed keywords and the README sketch."""

import ast
import inspect
import pathlib
import re

import pytest

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
from aslkit.matgroups import corollary_decomposition, glz_group
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

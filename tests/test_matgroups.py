"""Matrix groups over finite fields and residue rings; filtrations."""

import hashlib

import pytest

from aslkit.cli import run

from aslkit.core import Subgroup, factorize, full_subgroup, is_isomorphic
from aslkit.errors import (
    NotAFieldElement,
    NotInvertible,
    SearchFailed,
    UnknownConstructor,
)
from aslkit.families import alternating_group, symmetric_group, cyclic_group
from aslkit.matgroups import (
    LPFiltration,
    MatrixGroupSpec,
    PrimePowerField,
    ResidueRing,
    corollary_decomposition,
    gl_group,
    glz_group,
    is_l_group,
    mat_inv,
    mat_mul,
    matrix_group,
    residue_kernel,
    search_lp,
    sl_group,
    unitriangular_group,
    validate_lp,
)
def test_field_arithmetic_f4():
    f4 = PrimePowerField(4)
    # nonzero elements form a cyclic group of order 3
    assert sorted(f4.mul(2, b) for b in range(1, 4)) == [1, 2, 3]
    assert f4.mul(f4.mul(2, 2), 2) == 1
    assert f4.inv(2) == f4.mul(2, 2)
    assert f4.add(2, 2) == 0  # characteristic 2


def test_field_arithmetic_f9():
    f9 = PrimePowerField(9)
    gen = f9.multiplicative_generator()
    x, n = gen, 1
    while x != 1:
        x = f9.mul(x, gen)
        n += 1
    assert n == 8


def test_residue_ring():
    z9 = ResidueRing(9)
    assert z9.inv(2) == 5
    assert not z9.is_unit(3)
    with pytest.raises(NotInvertible):
        z9.inv(6)


def test_mat_inv_over_local_ring():
    z4 = ResidueRing(4)
    m = ((1, 2), (0, 1))
    inv = mat_inv(z4, m)
    assert mat_mul(z4, m, inv) == ((1, 0), (0, 1))
    with pytest.raises(NotInvertible):
        mat_inv(z4, ((2, 0), (0, 1)))


def test_matrix_group_orders():
    assert gl_group(2, 2).order == 6
    assert gl_group(2, 3).order == 48
    assert sl_group(2, 3).order == 24
    assert sl_group(2, 4).order == 60
    assert sl_group(2, 5).order == 120
    assert unitriangular_group(3, 2).order == 8
    assert unitriangular_group(3, 3).order == 27


def test_matrix_group_rejects_singular():
    f2 = PrimePowerField(2)
    with pytest.raises(NotInvertible):
        matrix_group(MatrixGroupSpec(2, f2, (((1, 1), (1, 1)),)))


def test_matrix_group_refuses_integers_outside_a_proper_prime_power_field():
    """An integer names an element of F q, q = p^e with e > 1, only below q,
    so a library caller's 6 in F4 or -1 in F9 is refused, as in the spec
    parser; in F p and Z m an entry is reduced, a ring map."""
    for q, x in ((4, 6), (4, 4), (9, -1)):
        spec = MatrixGroupSpec(1, PrimePowerField(q), (((x,),),))
        with pytest.raises(NotAFieldElement, match=f"entry {x} is not"):
            matrix_group(spec)
    assert matrix_group(MatrixGroupSpec(1, PrimePowerField(4), (((3,),),))
                        ).order == 3
    assert matrix_group(MatrixGroupSpec(1, PrimePowerField(5), (((7,),),))
                        ).order == 4
    assert matrix_group(MatrixGroupSpec(1, ResidueRing(9), (((-1,),),))
                        ).order == 2


def test_matrix_labels_roundtrip():
    g = gl_group(2, 2)
    assert g.labels[0] == "[[1, 0], [0, 1]]"


def test_gl22_is_s3():
    assert is_isomorphic(gl_group(2, 2), symmetric_group(3))


def test_sl24_is_a5():
    assert is_isomorphic(sl_group(2, 4), alternating_group(5))


@pytest.mark.parametrize("ell", [1, 0, -3])
def test_is_l_group_refuses_ell_below_2(s4, ell):
    """n % 1 == 0 for every n, so ell = 1 used to divide forever."""
    with pytest.raises(ValueError, match="ell must be >= 2"):
        is_l_group(s4, ell)


@pytest.mark.parametrize("build, args", [
    (gl_group, (-1, 3)), (sl_group, (-1, 3)), (unitriangular_group, (-1, 2)),
    (glz_group, (-1, 2, 2))])
def test_negative_dimensions_are_refused(build, args):
    """GL and GLZ used to raise IndexError, U to fail its own assert, and
    SL to return a group of order 1."""
    with pytest.raises(UnknownConstructor, match="dimension n >= 0, got -1"):
        build(*args)


def test_glz_orders():
    assert glz_group(2, 2, 2).order == 96
    assert glz_group(2, 3, 1).order == 48


def test_residue_kernel():
    ker = residue_kernel(2, 2, 2)
    assert ker.order == 16
    assert is_l_group(ker.as_group(), 2)
    ker3 = residue_kernel(2, 3, 2)
    assert ker3.order == 81
    assert is_l_group(ker3.as_group(), 3)
    assert residue_kernel(2, 5, 1).order == 1


def test_is_l_group(d4, s3):
    assert is_l_group(d4, 2)
    assert not is_l_group(s3, 3)
    assert is_l_group(cyclic_group(1), 7)


def test_validate_lp_examples():
    lam = sl_group(2, 4)
    filt = LPFiltration(full_subgroup(lam),
                        Subgroup(lam, [0], normal=True),
                        Subgroup(lam, [0], normal=True))
    rep = validate_lp(lam, 2, 1, filt)
    assert rep.ok

    triv = cyclic_group(1)
    t = Subgroup(triv, [0], normal=True)
    assert validate_lp(triv, 2, 1, LPFiltration(t, t, t)).ok

    s3mat = gl_group(2, 2)
    from aslkit.normal import all_normal_subgroups
    c3 = next(s for s in all_normal_subgroups(s3mat) if s.order == 3)
    one = next(s for s in all_normal_subgroups(s3mat) if s.order == 1)
    rep2 = validate_lp(s3mat, 2, 2, LPFiltration(c3, c3, one))
    assert rep2.ok


def test_validate_lp_rejects():
    lam = sl_group(2, 3)
    full = full_subgroup(lam)
    one = Subgroup(lam, [0], normal=True)
    # lambda2 = full group is not abelian over lambda3 = 1
    rep = validate_lp(lam, 3, 2, LPFiltration(full, full, one))
    assert not rep.ok
    assert not rep.conditions["abelian_layer"]


def test_search_lp_examples():
    assert search_lp(gl_group(2, 2), 2, 2).orders() == (3, 3, 1)
    assert search_lp(sl_group(2, 4), 2, 1).orders() == (60, 1, 1)
    c5 = cyclic_group(5)
    assert search_lp(c5, 2, 1).orders() == (5, 5, 1)
    assert search_lp(sl_group(2, 3), 3, 2).orders() == (24, 2, 1)


def test_search_lp_failure():
    # S3 with J = 1 and ell = 5: lambda1 must be everything, but S3/anything
    # fails and the bottom layers cannot absorb C3
    assert search_lp(symmetric_group(3), 5, 1) is None


def test_corollary_decomposition_cases():
    amb = glz_group(2, 2, 1)
    n, length = corollary_decomposition(full_subgroup(amb), 2, 2)
    assert n.order == 1 and length == 2

    trivial = Subgroup(amb, [0])
    n, length = corollary_decomposition(trivial, 2, 1)
    assert n.order == 1 and length == 0

    amb3 = glz_group(2, 3, 1)
    det1 = [i for i in range(amb3.order)
            if (amb3.value(i)[0][0] * amb3.value(i)[1][1]
                - amb3.value(i)[0][1] * amb3.value(i)[1][0]) % 3 == 1]
    sl = Subgroup(amb3, det1)
    n, length = corollary_decomposition(sl, 3, 2)
    assert n.order == 1 and length == 3


def test_corollary_uses_residue_kernel():
    amb = glz_group(2, 2, 2)
    n, length = corollary_decomposition(full_subgroup(amb), 2, 6)
    assert n.order == 16  # the full residue kernel is absorbed into N
    assert is_l_group(n.as_group(), 2)
    assert length == 2


def test_corollary_search_failed():
    amb3 = glz_group(2, 3, 1)
    with pytest.raises(SearchFailed):
        corollary_decomposition(full_subgroup(amb3), 3, 1)


def test_corollary_requires_glz_parent():
    from aslkit.errors import UnknownConstructor
    s3 = symmetric_group(3)
    with pytest.raises(UnknownConstructor):
        corollary_decomposition(full_subgroup(s3), 2, 2)


PRIME_POWERS = [q for q in range(2, 65) if len(factorize(q)) == 1]


def _field_digest(F):
    """sha256 of the add and mul tables and the multiplicative generator."""
    q = F.size
    add = tuple(tuple(F.add(a, b) for b in range(q)) for a in range(q))
    mul = tuple(tuple(F.mul(a, b) for b in range(q)) for a in range(q))
    text = repr((add, mul, F.multiplicative_generator()))
    return hashlib.sha256(text.encode()).hexdigest()


FIELD_DIGESTS = {
    2: "0d1a219c815131f49b147f32cc2f4272d4b8438b39f836fd6538bb4aff5f53b9",
    3: "7e0d5d4faeac0737f4f0285653de72c7d7be054fd71ef96faafd2e81fd211ffc",
    4: "2cf60afb65203d804fe775d3e41047dbeb5831693e8318058131138ee57fe49a",
    5: "de209919209ca241e23d79be34d4c9c0ad9433c15e8f08f5c5f09edf27aabb33",
    7: "d86256bb70b3acaf6ec87bf27b893278de00f52108b6767129c4d55bf6259ac8",
    8: "3147545ac2bd46f9cb47e5be2f23cf81978d88d7b6588f1ef1576419bd4ce29c",
    9: "aa7e450af76f134c50a8a3000fe87c14ed9607cfe3c69b4eb5928475f907db57",
    11: "ab318920b54feb61fb2e9f0fe836294188b7cfaf91d9c7362240fc52c8315e85",
    13: "8efe49339cb55e5d2f4a12e1a2798d7cdccf287d68480e14acc845cb316e5d6a",
    16: "f0a59166f53d5d72d3b75b0172ac983f8e0eb4001ef277de113820b54435794a",
    17: "0471b6fb2d0115bac6967d1356ecd1d1d9387daea6886eaaa3630e41a786f0d6",
    19: "9540a1541b70f3c475f24baab0901fcd9f1560c000904aeea9454e1c1d66afcc",
    23: "29e1c0b67be4f0ed40cf7bf44431f700b1b721796c930193dca19906cd2e709d",
    25: "fa909a5eb79797ee87e9fd9a677fc52f2b561debd13738601596392ca22a5d40",
    27: "3e66d1039caf01d75a2ae3241793db56ce795a665cfe64924508fa54e003b3d3",
    29: "199da181a4c7b42dcaf60dc889f86250d895ab1c70eb25986fdd98acfee2b21b",
    31: "4161c11a788f4991fc6bb9c5195efc3d1dab19244e9bc4054b8e345936d73fd9",
    32: "c9436e77b3401a9481e6ce61a2f42598a8eb5e0538de650e5cdaf80038dbd420",
    37: "e423c5af5eded892fdba29fcfea60b7b2a6c4edf15e77ba808518299816fa5c5",
    41: "2e964678abc1037d08b91594566fb6e7e687314bd18a405e7db594df9d221cdb",
    43: "d7a84e6a01758e712b7599aa7201516caf1e510b1da1212f9efd78792503fca7",
    47: "04a0abdacc55bc35303c8eb7f232201aa62516d5ffdce7cf2f42b394c71f7a65",
    49: "54f45e0b6359a06913eb16eecfb2cf1215d8f49e5821f91e0d458bc02378bb6e",
    53: "56d93dc8e610c0cdf32e72d28828a4cbf7ddd0108f1cf4e8dd0115dc14e31947",
    59: "51346bf5ad643cbbd3e580b00f6a4c713863f3217f6f9f0b5ee357eac99e6436",
    61: "8cf658870248751f2e1f9437517fba0e72aa9aad0ebdaa6a79d7073bf008a858",
    64: "84dc950fe13d8a9f8e638a0b55cc0838ef897f2c23f6b1dec749afbf67e252ab",
}


def test_field_tables_are_pinned():
    assert len(PRIME_POWERS) == 27
    for q in PRIME_POWERS:
        F = PrimePowerField(q)
        assert _field_digest(F) == FIELD_DIGESTS[q], q
        assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, q)), q
        assert all(F.add(a, F.sub(b, a)) == b
                   for a in range(q) for b in range(q)), q


MATRIX_QUERIES = [
    ["normals", "GL(2,4)"],
    ["series", "SL(2,8)"],
    ["normals", "mat(F8; [[2]])"],
    ["normals", "mat(F8; [[2, 1], [0, 1]], [[1, 1], [0, 1]])"],
    ["normals", "mat(F9; [[3, 1], [0, 1]], [[1, 1], [0, 1]])"],
    ["normals", "mat(F16; [[2]])"],
    ["normals", "mat(F25; [[5]])"],
    ["normals", "mat(F25; [[5, 1], [0, 1]], [[1, 1], [0, 1]])"],
    ["normals", "mat(F27; [[3, 1], [0, 1]], [[1, 1], [0, 1]])"],
    ["normals", "mat(F32; [[2]])"],
    ["normals", "mat(F49; [[7]])"],
    ["normals", "mat(F64; [[2]], [[9]])"],
    ["normals", "mat(Z9; [[2, 1], [0, 1]], [[1, 3], [0, 1]])"],
    ["length", "GLZ(2,2,2)"],
    ["normals", "GLZ(2,2,2)"],
    ["lp", "GL(2,2)", "-l", "2", "-J", "2"],
    ["lp", "SL(2,4)", "-l", "2", "-J", "1"],
    ["kernelcheck", "-n", "2", "-l", "2", "-k", "2"],
    ["kernelcheck", "-n", "2", "-l", "3", "-k", "2"],
    ["verify", "lp"],
    ["verify", "kernel"],
    ["verify", "unipotent"],
    ["verify", "nontrivial-action"],
]

QUERY_DIGESTS = [
    "12cd97dcfc139f65a32c5edea8cc7fb3b60ed6077438279913bb036025d3ef01",
    "b7002a6bbd7980138090148c0a631a3ab902a2f86e20f7ca0272040b2e1a8dd9",
    "2dd65778b9f873574d24524e6630cc26646633c80f9d9f3a44056a70ac2cdd48",
    "75aa3609e7c5c5776f159c79dccb3d7ddf0d528bd8f34e660034c7903cb75cde",
    "1768ec21416ab8cacf3e30b5794085d97ea9b300562a88c1c2c223f716a95e99",
    "57418b6aa49a26e0135e368417abc3c29992c4b24f73a4ecfee63b21a18f6edc",
    "f276f51784d762cd4f164a96722ad29c75acc878be23e1aef3f93f7e6c348d1d",
    "6e1d57f460b3687393f98d733050ab77f99352d10534bb44283d31964c2a2cfc",
    "bfe36437d6cb59e4159a9eba73c29f3abd66ab32966c23df4108cbb07fde6903",
    "68384072a5314193fb48170ba7cce7468a633283799f2592049d410713777b87",
    "7b2fde0e649df1d6538da5432325d9f8d0676fef754fcb271c61d3c6ce37257e",
    "7e886140978d6000f7c1ca4e0f450b925dc2b6576a60bda6e1a5c18f0c207892",
    "bda57108422444c0b5bcba216412c53164fbc668faf81e9dbd5f9462c1131439",
    "e2b83c1286e04722ab6f0a190c6a4bdb09048de71c87bee30b5c28fe870007ad",
    "afec322e359e096f1f54d27ee052921cacb3dbf9afe42cd282daafa6a32993ef",
    "9bb5c8663270424375259bf736856e52cfbe0d8040f7371ac609176c4628c9a6",
    "2d3d0916a695f503e8ec912dad287b130ac7cb2da4f68e4a5791c38cc6ba8cb9",
    "f4f5cd134e9d952b7989b6a804d04edd12c8c63948f1b42a73534ef81639d896",
    "b1149640ec5d9589862d63559ff92cdb8ea9dea00d0cf80bdf5ffd9839624f03",
    "b12dc46fbc845d86cd38b5e198e2db9d984ede786fd01e6e45dc25f35eeff0f5",
    "82fe6b1adf89e6b4c5fcf4877acb20c0ef34c9123b27dae1d3f55aa2353626d3",
    "2a31e95e9ff90780d905fa2c59706734f47539b4cc1f6644a6fb46e2cb7d7fe2",
    "bf5ff8e6d6b5b35c420c8ceca6fadf4e652f0f942dc5ce16e3f209b8a31b539d",
]


def test_matrix_query_reports_are_pinned():
    assert len(MATRIX_QUERIES) == len(QUERY_DIGESTS) == 23
    for argv, want in zip(MATRIX_QUERIES, QUERY_DIGESTS):
        report, code = run(["--json", *argv])
        assert code == 0, argv
        got = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert got == want, argv

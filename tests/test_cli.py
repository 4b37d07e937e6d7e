"""CLI subcommands, exit codes, and report determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aslkit
from aslkit.cli import _build_parser, run
from aslkit.specparse import group_from_spec
from aslkit.verify import _trvrep

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _json_result(argv):
    report, code = run(argv)
    payload = json.loads(report.to_json())
    return payload, code


def test_length_command():
    payload, code = _json_result(["length", "S4"])
    assert code == 0
    assert payload["result"]["length"] == 3
    assert payload["result"]["order"] == 24


def test_series_command():
    payload, code = _json_result(["series", "S3"])
    assert code == 0
    assert payload["result"]["orders"] == [6, 3, 1]
    factors = payload["result"]["factors"]
    assert factors[0]["abelian_invariants"] == [2]
    assert factors[1]["abelian_invariants"] == [3]


def test_normals_command():
    payload, code = _json_result(["normals", "S4"])
    assert code == 0
    assert payload["result"]["count"] == 4
    orders = [s["order"] for s in payload["result"]["subgroups"]]
    assert orders == [1, 4, 12, 24]


def test_factors_command():
    payload, code = _json_result(["factors", "C6 x A5"])
    assert code == 0
    f = payload["result"]["factor"]
    assert f["abelian_invariants"] == [6]
    assert f["simple_orders"] == [60]


def test_wreath_command():
    payload, code = _json_result(
        ["wreath", "--a", "C2", "--g", "S3", "--g0", "(1 2)"])
    assert code == 0
    assert payload["result"]["order"] == 48
    assert payload["result"]["chain_indices"] == [3, 2, 2, 4]


def test_wreath_action_file(tmp_path):
    lines = []
    for a in range(4):
        for glab in ("()", "(1 2)"):
            img = a if glab == "()" else (-a) % 4
            lines.append(f"{a} ^ {glab} = {img}")
    path = tmp_path / "act.txt"
    path.write_text("\n".join(lines) + "\n")
    payload, code = _json_result(
        ["wreath", "--a", "C4", "--g", "S3", "--g0", "(1 2)",
         "--action", str(path)])
    assert code == 0
    assert payload["result"]["order"] == 4 ** 3 * 6


@pytest.mark.parametrize("cmd, extra", [("wreath", []),
                                        ("msigma", ["-m", "0"])])
def test_unreadable_action_file_is_a_usage_error(tmp_path, cmd, extra):
    base = [cmd, "--a", "C2", "--g", "S3", "--g0", "(1 2)"] + extra
    missing = tmp_path / "missing.txt"
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00")
    for path, why in ((missing, "No such file"), (tmp_path, "directory"),
                      (binary, "not UTF-8")):
        payload, code = _json_result(base + ["--action", str(path)])
        assert code == 2
        assert repr(str(path)) in payload["result"]["error"]
        assert why in payload["result"]["error"]


def test_msigma_command():
    payload, code = _json_result(
        ["msigma", "--a", "C2", "--g", "C3", "--g0", "1", "-m", "0"])
    assert code == 0
    assert payload["result"]["hypothesis"] is True
    assert payload["result"]["witness"] is not None

    payload, code = _json_result(
        ["msigma", "--a", "C2", "--g", "C2", "--g0", "0,1", "-m", "0"])
    assert code == 0
    assert payload["result"]["hypothesis"] is False
    assert payload["result"]["witness"] is None


def test_vchain_command():
    payload, code = _json_result(
        ["vchain", "--g", "C2", "--x", "coset:1", "-p", "2", "-d", "2"])
    assert code == 0
    assert payload["result"]["dims"] == [2, 1, 0]


def test_kernelcheck_command():
    payload, code = _json_result(["kernelcheck", "-n", "2", "-l", "2", "-k", "2"])
    assert code == 0
    assert payload["result"]["kernel_order"] == 16


def test_lp_command():
    payload, code = _json_result(["lp", "GL(2,2)", "-l", "2", "-J", "2"])
    assert code == 0
    assert payload["result"]["orders"] == [3, 3, 1]
    payload, code = _json_result(["lp", "S3", "-l", "5", "-J", "1"])
    assert code == 1
    assert payload["result"]["found"] is False


def test_usage_error_exit_2():
    _, code = run(["length", "Nope5"])
    assert code == 2
    _, code = run(["length"])
    assert code == 2
    _, code = run(["vchain", "--g", "C2", "--x", "bad", "-p", "2", "-d", "1"])
    assert code == 2


OUT_OF_DOMAIN = [
    (["lp", "S4", "-l", "1", "-J", "2"],
     "argument -l: must be a prime, got 1"),
    (["lp", "S4", "-l", "0", "-J", "2"],
     "argument -l: must be a prime, got 0"),
    (["lp", "S4", "-l", "4", "-J", "2"],
     "argument -l: must be a prime, got 4"),
    (["vchain", "--g", "S3", "--x", "coset:1", "-p", "6", "-d", "2"],
     "argument -p: must be a prime, got 6"),
    (["vchain", "--g", "S3", "--x", "coset:1", "-p", "9", "-d", "2"],
     "argument -p: must be a prime, got 9"),
    (["vchain", "--g", "S3", "--x", "coset:1", "-p", "0", "-d", "2"],
     "argument -p: must be a prime, got 0"),
    (["vchain", "--g", "C4", "--x", "coset:1", "-p", "4", "-d", "2"],
     "argument -p: must be a prime, got 4"),
    (["vchain", "--g", "C4", "--x", "coset:1", "-p", "1", "-d", "2"],
     "argument -p: must be a prime, got 1"),
    (["vchain", "--g", "C4", "--x", "coset:1", "-p", "2", "-d", "-1"],
     "argument -d: must be >= 0, got -1"),
    (["msigma", "--a", "C2", "--g", "S3", "--g0", "1", "-m", "-1"],
     "argument -m: must be >= 0, got -1"),
    (["kernelcheck", "-n", "-1", "-l", "2", "-k", "2"],
     "argument -n: must be >= 0, got -1"),
]


@pytest.mark.parametrize("argv,message", OUT_OF_DOMAIN,
                         ids=[" ".join(a) for a, _ in OUT_OF_DOMAIN])
def test_out_of_domain_flags_are_usage_errors(argv, message):
    """A prime flag that is not a prime, or a count below 0, is refused
    before any work, naming the flag; `lp -l 1` used to loop forever."""
    t0 = time.monotonic()
    payload, code = _json_result(argv)
    assert code == 2
    assert payload["result"]["error"] == message
    assert time.monotonic() - t0 < 5


def test_prime_flag_is_bounded_before_trial_division():
    t0 = time.monotonic()
    payload, code = _json_result(["lp", "S4", "-l", PRIME, "-J", "2"])
    assert code == 3
    assert f"prime candidate {PRIME} exceeds cap" in payload["result"]["error"]
    assert time.monotonic() - t0 < 5


# the same group, its generators listed in two orders
REORDERED = [
    ("perm(6; (1 2)(3 4), (1 3)(2 4), (5 6))",
     "perm(6; (5 6), (1 3)(2 4), (1 2)(3 4))"),
    ("perm(8; (1 2 3 4 5 6 7 8), (1 8)(2 7)(3 6)(4 5))",
     "perm(8; (1 8)(2 7)(3 6)(4 5), (1 2 3 4 5 6 7 8))"),
    ("mat(Z9; [[2, 1], [0, 1]], [[1, 3], [0, 1]])",
     "mat(Z9; [[1, 3], [0, 1]], [[2, 1], [0, 1]])"),
    # and A4 from two generating sets
    ("perm(4; (1 2 3), (2 3 4))", "perm(4; (1 2)(3 4), (1 2 3))"),
]


@pytest.mark.parametrize("first,second", REORDERED)
def test_reports_do_not_depend_on_generator_order(first, second):
    """Listing the generators in another order enumerates the elements in
    another order; `normals`, `series`, `factors`, `length` and the
    `trvrep` check read only the group, so they agree apart from the
    echoed spec."""
    for cmd in ("normals", "series", "factors", "length"):
        results = []
        for spec in (first, second):
            payload, code = _json_result(["--json", cmd, spec])
            assert code == 0
            results.append(dict(payload["result"], spec=None))
        assert results[0] == results[1], cmd
    assert _trvrep(group_from_spec(first)) == \
        _trvrep(group_from_spec(second))


def test_cap_exceeded_exit_3():
    _, code = run(["length", "U(4,7)"])
    assert code == 3
    _, code = run(["--closure-cap", "10", "length", "S4"])
    assert code == 3


PRIME = "100000000000000000039"  # 10^20 + 39, too large to trial-divide

OVERSIZED = {
    "GLZ(92,3,2)": (3, "|GL(92, Z/3^2)| exceeds cap 100000"),
    "C<5000 nines>": (2, "integer of 5000 digits is too long "
                         "(line 1, column 2)"),
    "mat(F<5000 nines>; [[1]])": (2, "too long (line 1, column 6)"),
    "GL(92,3)": (3, "|GL(92,3)| exceeds cap"),
    "SL(92,3)": (3, "|SL(92,3)| exceeds cap"),
    "D99999999999": (3, "|D99999999999| exceeds cap"),
    "S99": (3, "|S99| exceeds cap"),
    "A99": (3, "|A99| exceeds cap"),
    "U(200,2)": (3, "|U(200,2)| exceeds cap"),
    "C2 x <15000 factors>": (3, "|direct product| exceeds cap"),
    "GL(2,<prime>)": (3, f"field size {PRIME} exceeds cap 64"),
    "U(2,<prime>)": (3, f"field size {PRIME} exceeds cap 64"),
    "GLZ(2,<prime>,1)": (3, f"modulus {PRIME} exceeds cap 100000"),
    "mat(F<prime>; [[1]])": (3, f"field size {PRIME} exceeds cap 64"),
    "mat(Z<prime>; [[1]])": (3, f"residue modulus {PRIME} exceeds cap"),
    "perm(1000000; (1 2))": (3, "permutation degree 1000000 exceeds cap"),
    "C2 x B7": (2, "unknown constructor 'B7' (line 1, column 6)"),
    "perm(0; ())": (2, "degree must be positive (line 1, column 6)"),
    "C2 x GL(2,6)": (2, "6 is not a prime power (line 1, column 6)"),
    "C2 x GLZ(2,4,1)": (2, "GLZ needs a prime, got 4 (line 1, column 6)"),
}


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_specs_exit_with_their_codes_at_once(name):
    """The order is compared with the cap factor by factor, and a field
    size, modulus or permutation degree with its cap, before anything is
    built or factored; an integer too long to convert, an unknown
    constructor and a degree below 1 are syntax errors at their column,
    and a constructor refusing its arguments reports its factor's
    column."""
    spec = name.replace("<5000 nines>", "9" * 5000).replace(
        " x <15000 factors>", " x C2" * 14999).replace("<prime>", PRIME)
    code, message = OVERSIZED[name]
    t0 = time.monotonic()
    payload, got = _json_result(["length", spec])
    assert got == code
    assert message in payload["result"]["error"]
    assert time.monotonic() - t0 < 5


def test_cold_import_loads_every_layer_and_no_dataclasses():
    """`import aslkit.cli` stays cheap: no `dataclasses` and no `inspect`
    (about 12 ms together, before any record class is made), yet every
    layer the bench tracer wraps is imported eagerly, since the tracer
    reads them from `sys.modules` after this one import."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text("utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and node.targets[0].id == "LAYERS")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(aslkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, aslkit.cli; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    modules = set(out.split())
    assert not {"dataclasses", "inspect"} & modules
    assert {f"aslkit.{layer}" for layer in layers} <= modules


def test_dense_cap_is_a_usage_error():
    _, code = run(["--dense-cap", "10", "length", "S4"])
    assert code == 2
    _, code = run(["length", "S4", "--dense-cap", "10"])
    assert code == 2


def test_oracle_cap_is_a_usage_error():
    _, code = run(["--oracle-cap", "10", "verify", "kernel"])
    assert code == 2
    _, code = run(["verify", "kernel", "--oracle-cap", "10"])
    assert code == 2


def test_readme_documents_the_global_options():
    text = README.read_text(encoding="utf-8")
    synopsis = next(line for line in text.splitlines()
                    if line.startswith("aslkit [--json]"))
    caps = text.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in caps.splitlines()
                      if line.startswith("|"))
    documented = set(re.findall(r"--[a-z][a-z-]*", synopsis + "\n" + table))
    accepted = {flag for action in _build_parser()._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")}
    assert documented == accepted


def test_verify_suite_exit_codes():
    report, code = run(["verify", "msigma"])
    assert code == 0
    assert report.result["ok"] is True


def test_verify_reports_are_deterministic():
    def render():
        report, code = run(["verify", "kernel", "--json"])
        assert code == 0
        return report.to_json()

    assert render() == render()


def test_verify_times_each_suite_in_text_only():
    report, code = run(["verify", "kernel"])
    assert code == 0
    assert re.search(r"^\[PASS\] kernel: 3/3 cases \(\d+\.\d\d s\) -- ",
                     report.to_text(), re.M)
    report, code = run(["verify", "kernel", "--json"])
    text = report.to_json()
    assert " s)" not in text and "elapsed" not in text
    assert set(json.loads(text)["result"]["suites"][0]) == \
        {"suite", "claim", "passed", "failed", "cases"}


def test_json_flag_position():
    a, _ = _json_result(["--json", "length", "S4"])
    b, _ = _json_result(["length", "S4", "--json"])
    assert a["result"] == b["result"]

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Stated runtime budgets are asserted. Spot values were derived through the
brute-force oracle before being frozen here; the tests assert the main path
against the oracle first and the frozen constant second.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import aslkit

from aslkit.catalog import catalog, transitive_catalog
from aslkit.cli import run
from aslkit.core import conjugacy_classes, direct_product
from aslkit.families import (
    alternating_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from aslkit.matgroups import sl_group
from aslkit.oracle import oracle_length
from aslkit.series import abelian_simple_length
from aslkit.verify import run_suite


def _report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def _suite_ok(name, **kw):
    res = run_suite(name, **kw)
    failures = [c for c in res.cases if not c.ok]
    return res, failures


def test_criterion_01_length_bound():
    """l(G) <= log2|G| on the full catalog of order <= 200, within 60 s."""
    t0 = time.monotonic()
    cat = catalog(200)
    bad = []
    for name, g in cat:
        lng = abelian_simple_length(g)
        bound = math.log2(g.order) if g.order > 1 else 0
        if lng > bound + 1e-9:
            bad.append(name)
    elapsed = time.monotonic() - t0
    _report(1, not bad and elapsed < 60,
            f"{len(cat)} groups, {elapsed:.1f}s, violations: {bad}")


def test_criterion_02_oracle_agreement():
    """Main path equals the oracle on <= 100-order, <= 16-class groups,
    within 120 s."""
    t0 = time.monotonic()
    res, failures = _suite_ok("oracle-agreement", max_order=100)
    elapsed = time.monotonic() - t0
    _report(2, not failures and elapsed < 120,
            f"{len(res.cases)} groups, {elapsed:.1f}s, "
            f"failures: {[c.id for c in failures]}")


def test_criterion_03_structural_laws():
    """Image, containment, extension, fiber, and family laws at order <= 48."""
    all_fail = []
    counts = {}
    for suite in ("quotient-law", "normal-law", "extension-law", "fiber-law"):
        res, failures = _suite_ok(suite, max_order=48)
        counts[suite] = len(res.cases)
        all_fail.extend(f"{suite}:{c.id}" for c in failures)
    from aslkit.verify import fiber_triples
    fiber_count = len(fiber_triples())
    _report(3, not all_fail and fiber_count == 20,
            f"cases {counts}, fiber triples {fiber_count}, "
            f"failures: {all_fail}")


SPOT_VALUES = {
    # frozen after derivation through oracle_length
    "S3": 2, "S4": 3, "S5": 2, "S6": 2, "S7": 2,
    "D4": 2, "Q8": 2, "SL(2,3)": 3, "A5": 1, "A5 x A5": 1,
}


def test_criterion_04_spot_values():
    groups = {
        "S3": symmetric_group(3), "S4": symmetric_group(4),
        "S5": symmetric_group(5), "S6": symmetric_group(6),
        "S7": symmetric_group(7), "D4": dihedral_group(4),
        "Q8": quaternion_group(), "SL(2,3)": sl_group(2, 3),
        "A5": alternating_group(5),
        "A5 x A5": direct_product(alternating_group(5),
                                  alternating_group(5)),
    }
    bad = []
    for name, g in groups.items():
        main = abelian_simple_length(g)
        cap = max(16, len(conjugacy_classes(g)))
        orc = oracle_length(g, max_classes=cap)
        if main != orc:
            bad.append(f"{name}: main {main} != oracle {orc}")
        if main != SPOT_VALUES[name]:
            bad.append(f"{name}: main {main} != frozen {SPOT_VALUES[name]}")
    _report(4, not bad, f"{len(groups)} spot values; {bad}")


def test_criterion_05_msigma_witnesses():
    t0 = time.monotonic()
    res, failures = _suite_ok("msigma")
    elapsed = time.monotonic() - t0
    _report(5, not failures and elapsed < 60,
            f"{len(res.cases)} instances, {elapsed:.1f}s, "
            f"failures: {[c.id for c in failures]}")


def test_criterion_06_exact_sequence():
    res, failures = _suite_ok("exact-sequence")
    _report(6, not failures,
            f"{len(res.cases)} instances, failures: {[c.id for c in failures]}")


def test_criterion_07_simple_nonabelian():
    t0 = time.monotonic()
    res, failures = _suite_ok("simple-nonabelian")
    elapsed = time.monotonic() - t0
    _report(7, not failures and elapsed < 600,
            f"{elapsed:.1f}s, failures: {[c.id for c in failures]}")


def test_criterion_08_nontrivial_action():
    res, failures = _suite_ok("nontrivial-action")
    _report(8, not failures,
            f"order-96 wreath commutator closure, "
            f"failures: {[c.id for c in failures]}")


def test_criterion_09_trvrep():
    res, failures = _suite_ok("trvrep", max_order=48)
    _report(9, not failures,
            f"{len(res.cases)} groups, failures: {[c.id for c in failures]}")


def test_criterion_10_residue_kernel():
    res, failures = _suite_ok("kernel")
    _report(10, not failures,
            f"{len(res.cases)} instances, failures: {[c.id for c in failures]}")


def test_criterion_11_larsen_pink():
    res, failures = _suite_ok("lp")
    _report(11, not failures,
            f"{len(res.cases)} reference groups, "
            f"failures: {[c.id for c in failures]}")


def test_criterion_12_numeric_claims():
    all_fail = []
    for suite in ("sn-bound", "unipotent"):
        res, failures = _suite_ok(suite)
        all_fail.extend(f"{suite}:{c.id}" for c in failures)
    transitive = len(transitive_catalog(6))
    _report(12, not all_fail,
            f"S_n bounds, {transitive} transitive groups, unipotent lengths; "
            f"failures: {all_fail}")


# sha256 of each suite's object in `verify all --max-order 64 --json`,
# rendered as `_pin_digest` renders it, and of the envelope around them
SUITE_DIGESTS = {
    "log-length":
        "20b10b8e8fb2a3556a23e422280b9223b2fba88953a5fedf889b98075f28400f",
    "solvable-coincidence":
        "3ab1573673ebb4bc680ebc82b59fb5d648245663795c402d40ce8c76e45e0492",
    "quotient-law":
        "f9eedf5d3ae8e56bdb42205ad1f769fb8f5b9b16164ee14026336c73e981fd51",
    "normal-law":
        "03cf1ad0c648fc9f698ac509c763d1cec985d7ae2517673423e64c17b7230a3e",
    "fiber-law":
        "ea995b5c7e9f24b596c88bb8ae66b57c0c3239e4d1a5a0f8d6d89ddfe89ac2be",
    "extension-law":
        "df78118cd5c9f27a40f367b307dd475508473d383de9d9855b08e5b8c2c10172",
    "product-decomposition":
        "96c60a126583c7bc2f96605c8ea1b6c4be4ac59da20e47070cf23f53f585b059",
    "exact-sequence":
        "c0b279c1ec684d850b144b6e8ce4316c55d0abf8782a11091b3d53187812daa0",
    "msigma":
        "310a02d8388997e4c0fa531b51b8788f80e630de22d5bf41c3886a7c077b886e",
    "simple-nonabelian":
        "e7b9c2709070fa7cd73a152dc48a66f620941496a361f8103ccf8b9befa0b66e",
    "nontrivial-action":
        "ebf95d279aee4e618bc8d6376c5963c65bc4d69cfe999d1f821ce289327c0b76",
    "trvrep":
        "b5c7df2c407b108d0eb258e74712ad7771717f9a22416cf28b1f31b574253ccc",
    "kernel":
        "d88e0a22bcfa769f81128aa97a20a7376d9309abb19f5a54bcb945e564c05fbd",
    "lp":
        "bab4a9b5b6b1bda146bae45ae5485868165cec78d03eb100891f7eaf7317f7b2",
    "sn-bound":
        "e4ea807fdc33a990b9abfdadf70a044129cc92d55712eff728aa9d675d5a364c",
    "unipotent":
        "5626fc1c3195b7bcf6420806ac57bfe86fc4556690aaa965f4c57eab6bf3cdac",
    "oracle-agreement":
        "e98a81266ab16bda0217eda22c6112399b9e4716cd28f7172f25b583795cecf3",
}
ENVELOPE_DIGEST = \
    "7468730a0ce494c932a2a67c0cbc05ded646a7aa43532770c8406f88a323e9ae"


def _pin_digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, indent=2).encode()).hexdigest()


def _verify_pins(text):
    """(suite digests, envelope digest) of a `verify --json` report, or
    None when the text is not the canonical render of what it parses to.

    The envelope is the report with each suite object replaced by its
    name: schema, version, command echo, suite order and `ok`. Any byte
    of the text is either in what it parses to, and so in one of these
    digests, or in its layout, which the re-render compares.
    """
    payload = json.loads(text)
    if json.dumps(payload, sort_keys=True, indent=2) + "\n" != text:
        return None
    suites = payload["result"]["suites"]
    envelope = dict(payload, result=dict(
        payload["result"], suites=[s["suite"] for s in suites]))
    return ({s["suite"]: _pin_digest(s) for s in suites},
            _pin_digest(envelope))


def test_criterion_13_determinism():
    """Byte-identical machine-readable reports in and out of process.

    The in-process render is compared with a cold `python -m aslkit.cli`
    run under a different PYTHONHASHSEED, so neither warm caches nor set
    and dict ordering can make the two agree by accident. The full suite
    list runs both times; the catalog sweep is capped at order 64 to keep
    the double execution quick (the fixed-instance suites do not depend on
    the cap at all). The bytes are also pinned suite by suite
    (`SUITE_DIGESTS`) and by their envelope (`ENVELOPE_DIGEST`), so a
    change to any of the 17 suites' claims, case ids, details or order
    clamps shows here, and names the suites it moved. The command echo is
    part of the envelope, so its digest belongs to this argv; the pins
    were recorded on CPython 3.11.
    """
    argv = ["verify", "all", "--max-order", "64", "--json"]
    report, code = run(argv)
    assert code == 0
    first = report.to_json()

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(aslkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cold = subprocess.run([sys.executable, "-m", "aslkit.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          check=True)
    pins = _verify_pins(first)
    assert pins is not None, "report is not its canonical JSON render"
    digests, envelope = pins
    moved = sorted(k for k in SUITE_DIGESTS.keys() | digests.keys()
                   if digests.get(k) != SUITE_DIGESTS.get(k))
    ok = first == cold.stdout and len(digests) == 17 and not moved \
        and envelope == ENVELOPE_DIGEST
    _report(13, ok,
            f"{len(digests)} suites, identical bytes in process and in a "
            f"cold process under PYTHONHASHSEED={env['PYTHONHASHSEED']}, "
            f"suites off their pins: {moved}, envelope sha256 {envelope}")

"""Command-line interface and report serialization.

Machine-readable output (--json) is canonical JSON with sorted keys, integer
types, and element sets as sorted label lists; identical inputs produce
byte-identical bytes. Wall-clock timing appears only in the human-readable
text, never in the JSON, so reports stay reproducible. Exit codes: 0 pass,
1 verification failure, 2 usage error, 3 cap exceeded.

The global options --json and --closure-cap are accepted before or after
the subcommand; any other option or abbreviation is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .core import CLOSURE_CAP, GroupAction, Record, is_prime, \
    subgroup_generated, trivial_subgroup
from .errors import GroupSpecError, ToolkitError, UsageError
from .fpmod import coset_space, v_chain
from .matgroups import is_l_group, residue_kernel, search_lp, validate_lp
from .normal import all_normal_subgroups
from .series import (
    abelian_simple_length,
    factor_structure,
    generalized_derived_series,
)
from .specparse import evaluate, group_from_spec, parse_group_spec, \
    resolve_label, split_labels, unparse
from .verify import SUITES, run_all, run_suite
from .wreath import (
    msigma_hypothesis,
    msigma_witness,
    realization_chain,
    twisted_wreath_product,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
# the text report of an error, by the exit code its type declares
_TEXT_PREFIX = {1: "verification failure", 2: "usage error", 3: "cap exceeded"}


class Report(Record):
    """Command echo plus a structured, deterministically ordered result."""
    __slots__ = ("command", "result", "human", "elapsed")

    def __init__(self, command, result, human, elapsed):
        self.command = command
        self.result = result
        self.human = human
        self.elapsed = elapsed

    def to_json(self):
        payload = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "command": list(self.command),
            "result": self.result,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self):
        return self.human + f"\nelapsed: {self.elapsed:.2f}s\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text):
    """A flag that counts steps or a dimension: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _positive(text):
    """A flag that bounds an order or an index: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


_positive.__name__ = "int"  # argparse reports "invalid int value: 'x'"


def _prime(text):
    """A prime flag, bounded by the default closure cap before division."""
    if not is_prime(int(text)):
        raise argparse.ArgumentTypeError(f"must be a prime, got {text}")
    return int(text)


def _build_parser():
    p = _Parser(prog="aslkit", allow_abbrev=False,
                description="finite-group series, wreath, and module toolkit")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.add_argument("--closure-cap", type=int, default=CLOSURE_CAP)
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # value given before the subcommand from being overwritten by defaults
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--closure-cap", type=int, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="cmd", required=True,
                           parser_class=lambda **kw: _Parser(
                               parents=[common], allow_abbrev=False, **kw))

    sp = sub.add_parser("length", help="abelian-simple length of SPEC")
    sp.add_argument("spec")
    sp = sub.add_parser("series", help="generalized derived series of SPEC")
    sp.add_argument("spec")
    sp = sub.add_parser("normals", help="normal subgroup lattice of SPEC")
    sp.add_argument("spec")
    sp = sub.add_parser("factors", help="structure of G/D(G) for SPEC")
    sp.add_argument("spec")

    sp = sub.add_parser("wreath", help="twisted wreath product")
    sp.add_argument("--a", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--g0", required=True,
                    help="comma-separated generator labels; '1' for trivial")
    sp.add_argument("--action", help="action table file")

    sp = sub.add_parser("msigma", help="series growth witness in a wreath")
    sp.add_argument("--a", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--g0", required=True)
    sp.add_argument("--action")
    sp.add_argument("-m", type=_count, required=True)

    sp = sub.add_parser("vchain", help="function-space chain over F_p")
    sp.add_argument("--g", required=True)
    sp.add_argument("--x", required=True,
                    help="coset:ELEMS (right cosets of the generated subgroup)")
    sp.add_argument("-p", type=_prime, required=True)
    sp.add_argument("-d", type=_count, required=True)

    sp = sub.add_parser("kernelcheck", help="residue kernel order and l-group test")
    sp.add_argument("-n", type=_count, required=True)
    sp.add_argument("-l", type=int, required=True)
    sp.add_argument("-k", type=int, required=True)

    sp = sub.add_parser("lp", help="search and validate a filtration")
    sp.add_argument("spec")
    sp.add_argument("-l", type=_prime, required=True)
    sp.add_argument("-J", type=_positive, required=True)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--max-order", type=_positive, default=200)
    return p


def _parse_g0(G, text):
    text = text.strip()
    if text in ("1", ""):
        return trivial_subgroup(G)
    labels = split_labels(text)
    return subgroup_generated(G, [resolve_label(G, lab) for lab in labels])


def _load_action(path, A, G0):
    """Action table file: one 'a_label ^ g_label = a_label' line per pair."""
    G0g = G0.as_group()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(
            f"cannot read action file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(
            f"action file {path!r} is not UTF-8 text") from None
    table = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "^" not in line or "=" not in line:
            raise GroupSpecError(f"bad action line: {line!r}", lineno, 1)
        left, _, result = line.rpartition("=")
        a_lab, _, g_lab = left.partition("^")
        a = resolve_label(A, a_lab.strip())
        g = resolve_label(G0g, g_lab.strip())
        table[(a, g)] = resolve_label(A, result.strip())
    missing = [(a, g) for a in range(A.order) for g in range(G0g.order)
               if (a, g) not in table]
    if missing:
        raise GroupSpecError(
            f"action table incomplete: {len(missing)} missing pairs")
    act = GroupAction(G0g, A, lambda a, g: table[(a, g)])
    act.validate()
    return act


def _subgroup_json(sub):
    G = sub.parent
    return {"order": sub.order,
            "members": sorted(G.label(i) for i in sub.members)}


def _factor_json(desc):
    return {"order": desc.order,
            "kind": desc.kind,
            "abelian_invariants": list(desc.abelian_invariants),
            "simple_orders": list(desc.simple_orders)}


# -- subcommand implementations ------------------------------------------------


def _spec_group(args):
    """Canonical text of args.spec and the group it denotes, parsed once."""
    node = parse_group_spec(args.spec)
    return unparse(node), evaluate(node, closure_cap=args.closure_cap)


def _cmd_length(args):
    spec, G = _spec_group(args)
    lng = abelian_simple_length(G)
    result = {"spec": spec, "order": G.order, "length": lng}
    human = f"{spec}: order {G.order}, l = {lng}"
    return result, human, EXIT_OK


def _cmd_series(args):
    spec, G = _spec_group(args)
    rep = generalized_derived_series(G)
    result = {
        "spec": spec,
        "orders": list(rep.orders()),
        "length": rep.length,
        "factors": [_factor_json(f) for f in rep.factors],
    }
    lines = [f"{spec}: l = {rep.length}"]
    for i, (t, f) in enumerate(zip(rep.terms, rep.factors)):
        lines.append(f"  term {i}: order {t.order}, factor {f.label()}")
    lines.append(f"  term {len(rep.terms) - 1}: order {rep.terms[-1].order}")
    return result, "\n".join(lines), EXIT_OK


def _cmd_normals(args):
    spec, G = _spec_group(args)
    # equal orders are listed by sorted labels, not by the element order
    subs = sorted(all_normal_subgroups(G), key=lambda s: (
        s.order, sorted(G.label(i) for i in s.members)))
    result = {
        "spec": spec,
        "count": len(subs),
        "subgroups": [_subgroup_json(s) for s in subs],
        "inclusion": [[int(a.member_set <= b.member_set) for b in subs]
                      for a in subs],
    }
    human = (f"{spec}: {len(subs)} normal subgroups, orders "
             + ", ".join(str(s.order) for s in subs))
    return result, human, EXIT_OK


def _cmd_factors(args):
    spec, G = _spec_group(args)
    desc = factor_structure(G)
    result = {"spec": spec, "factor": _factor_json(desc)}
    human = f"{spec}: G/D(G) = {desc.label()} (order {desc.order})"
    return result, human, EXIT_OK


def _wreath_inputs(args):
    """A, G, G0 and the action (None: trivial) of --a/--g/--g0/--action."""
    A = group_from_spec(args.a, closure_cap=args.closure_cap)
    G = group_from_spec(args.g, closure_cap=args.closure_cap)
    G0 = _parse_g0(G, args.g0)
    act = _load_action(args.action, A, G0) if args.action else None
    return A, G, G0, act


def _cmd_wreath(args):
    A, G, G0, act = _wreath_inputs(args)
    W = twisted_wreath_product(A, G, G0, act, closure_cap=args.closure_cap)
    chain, indices = realization_chain(W)
    result = {
        "a": A.name, "g": G.name, "g0_order": G0.order,
        "order": W.group.order,
        "ind_order": W.ind_group.order,
        "chain_orders": [s.order for s in chain],
        "chain_indices": list(indices),
    }
    human = (f"{A.name} wr[{G0.order}] {G.name}: order {W.group.order}, "
             f"chain orders {result['chain_orders']}, "
             f"indices {list(indices)}")
    return result, human, EXIT_OK


def _cmd_msigma(args):
    A, G, G0, act = _wreath_inputs(args)
    hyp = msigma_hypothesis(G, G0, args.m)
    wit = msigma_witness(A, G, G0, act, args.m,
                         closure_cap=args.closure_cap)
    result = {
        "a": A.name, "g": G.name, "g0_order": G0.order, "m": args.m,
        "hypothesis": hyp,
        "witness": None if wit is None else
        {"fn": {k: wit.fn[k] for k in sorted(wit.fn)}, "outer": wit.outer},
    }
    human = (f"hypothesis: {hyp}; witness: "
             + ("none" if wit is None else f"fn={wit.fn} outer={wit.outer}"))
    return result, human, EXIT_OK


def _cmd_vchain(args):
    G = group_from_spec(args.g, closure_cap=args.closure_cap)
    if not args.x.startswith("coset:"):
        raise UsageError("--x must have the form coset:ELEMS")
    G0 = _parse_g0(G, args.x[len("coset:"):])
    X = coset_space(G, G0)
    chain = v_chain(G, X, args.p, args.d)
    result = {"g": G.name, "set_size": X.size, "p": args.p,
              "dims": [v.dim for v in chain]}
    human = f"{G.name} on {X.size} cosets, p={args.p}: dims {result['dims']}"
    return result, human, EXIT_OK


def _cmd_kernelcheck(args):
    ker = residue_kernel(args.n, args.l, args.k,
                         closure_cap=args.closure_cap)
    expected = args.l ** (args.n * args.n * (args.k - 1))
    lgrp = is_l_group(ker, args.l)
    ok = ker.order == expected and lgrp
    result = {"n": args.n, "ell": args.l, "k": args.k,
              "kernel_order": ker.order, "expected": expected,
              "is_l_group": lgrp, "ok": ok}
    human = (f"kernel of GL_{args.n}(Z/{args.l}^{args.k}) -> "
             f"GL_{args.n}(Z/{args.l}): order {ker.order} "
             f"(expected {expected}), {args.l}-group: {lgrp}")
    return result, human, EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_lp(args):
    spec, G = _spec_group(args)
    filt = search_lp(G, args.l, args.J)
    if filt is None:
        result = {"spec": spec, "found": False}
        return result, "no filtration found; try a larger J", \
            EXIT_VERIFICATION_FAILED
    rep = validate_lp(G, args.l, args.J, filt)
    result = {
        "spec": spec,
        "found": True,
        "orders": list(filt.orders()),
        "conditions": {k: bool(v) for k, v in sorted(rep.conditions.items())},
        "notes": sorted(rep.notes),
        "valid": rep.ok,
    }
    human = (f"filtration orders {list(filt.orders())}, valid: {rep.ok}; "
             + "; ".join(rep.notes))
    return result, human, EXIT_OK if rep.ok else EXIT_VERIFICATION_FAILED


def _cmd_verify(args):
    if args.suite == "all":
        results = run_all(max_order=args.max_order)
    else:
        results = [run_suite(args.suite, max_order=args.max_order)]
    suites_json = []
    lines = []
    all_ok = True
    for res in results:
        all_ok &= res.ok
        suites_json.append({
            "suite": res.suite,
            "claim": res.claim,
            "passed": res.passed,
            "failed": res.failed,
            "cases": [{"id": c.id, "ok": c.ok, "detail": c.detail}
                      for c in res.cases],
        })
        lines.append(f"[{'PASS' if res.ok else 'FAIL'}] {res.suite}: "
                     f"{res.passed}/{len(res.cases)} cases "
                     f"({res.elapsed:.2f} s) -- {res.claim}")
        for c in res.cases:
            if not c.ok:
                lines.append(f"    FAIL {c.id}: {c.detail}")
    result = {"suites": suites_json, "ok": all_ok}
    return result, "\n".join(lines), \
        EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


_COMMANDS = {
    "length": _cmd_length,
    "series": _cmd_series,
    "normals": _cmd_normals,
    "factors": _cmd_factors,
    "wreath": _cmd_wreath,
    "msigma": _cmd_msigma,
    "vchain": _cmd_vchain,
    "kernelcheck": _cmd_kernelcheck,
    "lp": _cmd_lp,
    "verify": _cmd_verify,
}


def run(argv):
    """Execute a CLI invocation; returns (Report, exit_code). An error exits
    with its type's `exit_code`; the JSON names the type on code 1 only."""
    t0 = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        result, human, code = _COMMANDS[args.cmd](args)
    except ToolkitError as exc:
        code = exc.exit_code
        result = {"error": str(exc) if code != EXIT_VERIFICATION_FAILED
                  else f"{type(exc).__name__}: {exc}"}
        human = f"{_TEXT_PREFIX[code]}: {exc}"
    report = Report(list(argv), result, human, time.monotonic() - t0)
    return report, code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    report, code = run(argv)
    sys.stdout.write(report.to_json() if "--json" in argv
                     else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())

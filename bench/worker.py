"""Worker process of the aslkit benchmark; one cold process per task.

    worker.py setup WORKLOAD         import aslkit and build the inputs
    worker.py batch WORKLOAD [--trace]
                                     run the workload's verify suites
    worker.py query [--trace] ARG... one traced CLI query
    worker.py oracle                 oracle answers for specs read on stdin

Every task prints one JSON object on its last stdout line. Times are
`time.monotonic()` readings, a clock shared by all processes of the
machine, so the driver can subtract its own launch time from them.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import SUITE_WORKLOADS, suite_key  # noqa: E402


def _import_cli():
    t0 = time.perf_counter()
    import aslkit.cli
    return aslkit.cli, time.perf_counter() - t0


def _build_inputs(workload):
    """The inputs a suite workload starts from, built through the public API."""
    if workload == "wreath-large":
        from aslkit import (alternating_group, cyclic_group, subgroup_generated,
                            symmetric_group, trivial_subgroup,
                            twisted_wreath_product)
        c2 = cyclic_group(2)
        twisted_wreath_product(alternating_group(5), c2, trivial_subgroup(c2))
        s3 = symmetric_group(3)
        c3 = next(i for i in range(s3.order) if s3.element_order(i) == 3)
        twisted_wreath_product(alternating_group(5), s3,
                               subgroup_generated(s3, [c3]))
    else:
        from aslkit.catalog import catalog
        cap = max(int(argv[argv.index("--max-order") + 1])
                  for argv in SUITE_WORKLOADS[workload])
        catalog(cap)


def _run_cli(cli, argv):
    """Exit code and stdout text of `aslkit ARGV`; code None on a crash."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        code = None
    return code, buf.getvalue()


def _case_counts(text):
    """(attempted, failed) cases of a verify report; None if unreadable."""
    try:
        suites = json.loads(text)["result"]["suites"]
    except (ValueError, KeyError, TypeError):
        return None
    attempted = sum(len(s["cases"]) for s in suites)
    failed = sum(1 for s in suites for c in s["cases"] if not c["ok"])
    return attempted, failed


def _tracer(enabled):
    if not enabled:
        return None
    from tracer import Tracer
    return Tracer().install()


def _trace_out(tracer, import_s):
    out = tracer.summary()
    out["import_s"] = import_s
    out["spans"] = tracer.spans
    return out


def task_setup(workload):
    _import_cli()
    _build_inputs(workload)
    return {"t_ready": time.monotonic()}


def task_batch(workload, trace):
    cli, import_s = _import_cli()
    tracer = _tracer(trace)
    answers = []
    for argv in SUITE_WORKLOADS[workload]:
        code, text = _run_cli(cli, argv)
        answers.append({"key": suite_key(argv), "exit": code,
                        "t": time.monotonic(), "text": text})
    for ans in answers:
        text = ans.pop("text")
        ans["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        ans["cases"] = _case_counts(text)
    out = {"answers": answers}
    if tracer is not None:
        out["trace"] = _trace_out(tracer, import_s)
    return out


def task_query(argv, trace):
    cli, import_s = _import_cli()
    tracer = _tracer(trace)
    code, text = _run_cli(cli, argv)
    out = {"exit": code, "report": text}
    if tracer is not None:
        out["trace"] = _trace_out(tracer, import_s)
    return out


def task_oracle(specs):
    """Oracle length and normal-subgroup count of each spec.

    The class cap is lifted to the group order, as in the oracle-agreement
    suite: derived terms can have more classes than the group itself.
    """
    from aslkit.oracle import oracle_length, oracle_normal_subgroups
    from aslkit.specparse import group_from_spec
    out = {}
    for spec in specs:
        G = group_from_spec(spec)
        out[spec] = {
            "length": oracle_length(G, max_classes=G.order),
            "normals": len(oracle_normal_subgroups(G, max_classes=G.order)),
        }
    return out


def main(argv):
    task, rest = argv[0], argv[1:]
    trace = "--trace" in rest
    rest = [a for a in rest if a != "--trace"]
    if task == "setup":
        out = task_setup(rest[0])
    elif task == "batch":
        out = task_batch(rest[0], trace)
    elif task == "query":
        out = task_query(rest, trace)
    elif task == "oracle":
        out = task_oracle(json.load(sys.stdin))
    else:
        raise SystemExit(f"unknown task {task!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    # skip interpreter teardown, which no answer waits for
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1:])

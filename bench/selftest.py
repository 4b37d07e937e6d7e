"""Self-test of the benchmark itself; run from the root of a checkout.

    python3 bench/selftest.py

Checks that
  * BENCHMARK.json lists exactly the per-layer metrics of bench/layers.json;
  * every workload is correct both untraced and traced, so the traced
    suite reports and fixed queries have the recorded digests, the same
    bytes the untraced runs produce;
  * seeded queries give byte-identical reports traced and untraced;
  * every per-layer metric is non-zero on at least one workload.
Takes about four minutes on a 2-core machine. Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from queries import seeded_queries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
SAMPLE_QUERIES = 12


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _report(argv, traced, env):
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "query",
               "--trace", *argv]
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])["report"]
    return subprocess.run([sys.executable, "-m", "aslkit.cli", *argv],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, check=True).stdout


def main():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    if bench["per_layer"] != [{k: m[k] for k in ("name", "unit", "better")}
                              for m in layers]:
        problems.append("BENCHMARK.json per_layer differs from layers.json")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ASL_KIT_THREADS", None)
    for q in seeded_queries(SEED)[:SAMPLE_QUERIES]:
        argv = ["--json"] + q
        if _report(argv, False, env) != _report(argv, True, env):
            problems.append(f"traced report differs: {' '.join(q)}")

    nonzero = set()
    e2e = {m["name"] for m in bench["end_to_end"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = _run(workload, trace)
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: incorrect")
            want = {m["name"] for m in layers} if trace else e2e
            if set(res["metrics"]) != want:
                problems.append(f"{workload} trace={trace}: metric names")
            if trace:
                nonzero |= {k for k, v in res["metrics"].items()
                            if v["value"] != 0}
    for m in layers:
        if m["name"] not in nonzero:
            problems.append(f"{m['name']} is zero on every workload")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

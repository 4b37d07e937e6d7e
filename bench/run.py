"""aslkit benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every process the driver starts
runs cold, one at a time, with ASL_KIT_THREADS unset. Suite workloads run
their verify suites in one worker process per unit; `random-queries` runs
one `python3 -m aslkit.cli` process per query, a closed loop with one
client. Units are repeated while another one fits in --seconds.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the same units run under bench/tracer.py and the line reports
the per-layer metrics of bench/layers.json. Every answer is checked: suite
reports and fixed queries against the digests in bench/expected.json,
seeded queries against the brute-force oracle, outside the timed region.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from queries import FIXED, query_list  # noqa: E402
from workloads import QUERY_WORKLOAD, SUITE_WORKLOADS, WORKLOADS  # noqa: E402

SETUP_REPS = 9
RUN_LIMIT_S = 170       # a run must end within 180 s
SETUP_PROBE = ["--json", "length", "C1"]
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def _load(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


class NoResult(Exception):
    """The run cannot report metrics; it is reported failed."""


class Driver:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.expected = _load("expected.json")
        self.layers = _load("layers.json")
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ASL_KIT_THREADS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.notes = []

    # -- processes --------------------------------------------------------------

    def spawn(self, argv, stdin=None):
        """Run one child to completion: (launch time, exit code, stdout)."""
        left = self.start + RUN_LIMIT_S - time.monotonic()
        if left <= 0:
            raise NoResult(f"run stopped at the {RUN_LIMIT_S} s limit")
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(argv, input=stdin, stdout=subprocess.PIPE,
                                  cwd=ROOT, env=self.env, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise NoResult(f"run stopped at the {RUN_LIMIT_S} s limit") \
                from None
        return t_launch, proc.returncode, proc.stdout

    def worker(self, *args, stdin=None):
        """Run bench/worker.py; (launch time, its JSON result or None)."""
        t_launch, code, out = self.spawn(
            [sys.executable, os.path.join(HERE, "worker.py"), *args], stdin)
        lines = out.splitlines()
        if code != 0 or not lines:
            self.notes.append(f"worker {args[:2]} exited {code}")
            return t_launch, None
        return t_launch, json.loads(lines[-1])

    def fail(self, count, why):
        self.failed += count
        self.notes.append(why)

    # -- suite workloads ----------------------------------------------------------

    def setup_suites(self):
        times = []
        for _ in range(SETUP_REPS):
            t_launch, out = self.worker("setup", self.workload)
            self.attempted += 1
            if out is None:
                self.fail(1, "setup failed")
            else:
                times.append(out["t_ready"] - t_launch)
        return times

    def suite_unit(self):
        """One cold batch: (wall_s, per-answer latencies, traces)."""
        args = ["batch", self.workload] + (["--trace"] if self.trace else [])
        t_launch, out = self.worker(*args)
        n_suites = len(SUITE_WORKLOADS[self.workload])
        if out is None:
            self.attempted += n_suites
            self.fail(n_suites, "batch worker crashed")
            return None
        lat, prev = [], t_launch
        for ans in out["answers"]:
            lat.append(ans["t"] - prev)
            prev = ans["t"]
            self.check_suite(ans)
        trace = out.get("trace")
        return prev - t_launch, lat, [trace] if trace else []

    def check_suite(self, ans):
        cases = ans["cases"]
        attempted, failed = cases if cases else (1, 1)
        self.attempted += attempted
        want = self.expected["suites"].get(ans["key"])
        if ans["exit"] != 0 or cases is None or ans["sha256"] != want:
            self.fail(attempted, f"{ans['key']}: exit {ans['exit']}, "
                                 f"digest {ans['sha256'][:12]}")
        elif failed:
            self.fail(failed, f"{ans['key']}: {failed} failed cases")

    # -- random-queries -------------------------------------------------------------

    def query(self, argv):
        """One cold query: (latency, exit code, report text, trace)."""
        if self.trace:
            t_launch, out = self.worker("query", "--trace", *argv)
            t_end = time.monotonic()
            if out is None:
                return t_end - t_launch, None, "", None
            return t_end - t_launch, out["exit"], out["report"], out["trace"]
        t_launch, code, text = self.spawn(
            [sys.executable, "-m", "aslkit.cli", *argv])
        return time.monotonic() - t_launch, code, text, None

    def setup_queries(self):
        times = []
        want = self.expected["queries"][" ".join(SETUP_PROBE[1:])]
        for _ in range(SETUP_REPS):
            lat, code, text, _ = self.query(SETUP_PROBE)
            self.attempted += 1
            if code != 0 or _sha(text) != want:
                self.fail(1, f"setup probe: exit {code}")
            times.append(lat)
        return times

    def query_unit(self, queries, answers):
        """One pass over the query list: (wall_s, latencies, traces)."""
        lat, traces = [], []
        first = time.monotonic()
        for argv in queries:
            dt, code, text, trace = self.query(argv)
            lat.append(dt)
            answers.append((argv, code, text))
            if trace is not None:
                traces.append(trace)
        return time.monotonic() - first, lat, traces

    def check_queries(self, answers):
        """Digests for fixed queries, the oracle for seeded ones."""
        fixed = {" ".join(q) for q in FIXED}
        parsed = []
        for argv, code, text in answers:
            key = " ".join(argv[1:])
            self.attempted += 1
            if code != 0:
                self.fail(1, f"{key}: exit {code}")
            elif key in fixed:
                if _sha(text) != self.expected["queries"][key]:
                    self.fail(1, f"{key}: digest {_sha(text)[:12]}")
            else:
                try:
                    parsed.append((key, argv, json.loads(text)["result"]))
                except (ValueError, KeyError, TypeError):
                    self.fail(1, f"{key}: unreadable report")
        specs = sorted({argv[2] for _, argv, _ in parsed
                        if argv[1] != "vchain"})
        _, oracle = self.worker("oracle", stdin=json.dumps(specs))
        if oracle is None:
            self.fail(len(parsed), "oracle worker crashed")
            return
        for key, argv, res in parsed:
            try:
                ok = _agrees(argv[1], oracle.get(argv[2]), res)
            except (KeyError, TypeError, IndexError):
                ok = False
            if not ok:
                self.fail(1, f"{key}: disagrees with the oracle")

    # -- the run ----------------------------------------------------------------------

    def units(self, one_unit):
        """Repeat one_unit while another unit is predicted to fit."""
        deadline = time.monotonic() + self.seconds
        out, longest = [], 0.0
        while True:
            t0 = time.monotonic()
            unit = one_unit()
            if unit is None:
                break
            out.append(unit)
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() + longest > deadline:
                break
        return out

    def run(self):
        queries = self.workload == QUERY_WORKLOAD
        setup = []
        if not self.trace:
            setup = self.setup_queries() if queries else self.setup_suites()
        if queries:
            pass_list, answers = query_list(self.seed), []
            units = self.units(lambda: self.query_unit(pass_list, answers))
        else:
            units = self.units(self.suite_unit)
        # read before the oracle check, which is not part of the workload
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if queries:
            self.check_queries(answers)
        if not units:
            raise NoResult("no unit completed")
        if self.trace:
            return self.layer_metrics(units)
        if not setup:
            raise NoResult("no set-up completed")
        lat = [x for _, lats, _ in units for x in lats]
        return {
            "wall_s": (statistics.median(u[0] for u in units), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "query_p50_ms": (1000 * _percentile(lat, 0.5), "ms"),
            "query_p90_ms": (1000 * _percentile(lat, 0.9), "ms"),
        }

    def layer_metrics(self, units):
        """Per-layer metrics per unit (processes summed), median over units."""
        per_unit = [_layer_values(traces, wall) for wall, _, traces in units]
        self.write_trace(units)
        return {m["name"]: (statistics.median(u[m["name"]] for u in per_unit),
                            m["unit"])
                for m in self.layers}

    def write_trace(self, units):
        """Spans of every traced process, for reading after the run."""
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(
            TRACE_DIR, f"{self.workload}-seed{self.seed}.trace.json")
        procs = []
        for _, _, traces in units:
            for tr in traces:
                procs.append({"spans": tr["spans"], "self_s": tr["self_s"],
                              "calls": tr["calls"], "counts": tr["counts"]})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "span_fields": ["name", "start", "end", "parent"],
                       "processes": procs}, fh)


def _agrees(cmd, want, res):
    """Whether a seeded answer agrees with the oracle's (or, for vchain,
    whether the chain starts at the full space and descends)."""
    if cmd == "vchain":
        dims = res["dims"]
        return dims[0] == res["set_size"] and all(
            a >= b for a, b in zip(dims, dims[1:]))
    if cmd == "normals":
        return res["count"] == want["normals"]
    return res["length"] == want["length"]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _layer_values(traces, wall):
    """Per-layer metric values of one unit from its processes' summaries."""
    self_s, calls, counts = {}, {}, {}
    for tr in traces:
        for src, dst in ((tr["self_s"], self_s), (tr["calls"], calls),
                         (tr["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in list(counts):
        out[name] = counts[name]
    for name, v in self_s.items():
        out[name + ".self_s"] = v
    for name, v in calls.items():
        out[name + ".calls"] = v
    out["core.mul.hit_ratio"] = 1.0 - ratio(counts["core.mul.memo_entries"],
                                            counts["core.mul.calls"])
    out["core.closure.adopt_ratio"] = ratio(counts["core.closure.adopted"],
                                            counts["core.closure.adds"])
    out["normal.join_new_ratio"] = ratio(counts["normal.joins_new"],
                                         counts["normal.joins"])
    out["process.import_s"] = statistics.median(
        tr["import_s"] for tr in traces)
    out["trace.wall_s"] = wall
    return _Zero(out)


class _Zero(dict):
    """A metric the unit never reached reads 0."""

    def __missing__(self, key):
        return 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aslkit", "cli.py")):
        sys.exit("bench/run.py: no aslkit sources under src/aslkit; "
                 "run it from the root of a source checkout")
    # the build: byte-compile once so that no timed process compiles
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1) or \
            not compileall.compile_dir(HERE, quiet=1):
        sys.exit("bench/run.py: byte-compilation failed")
    drv = Driver(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = drv.run()
    except NoResult as exc:
        drv.attempted += 1
        drv.fail(1, str(exc))
        metrics = {}
    for note in drv.notes:
        print("FAIL", note)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": drv.failed == 0 and bool(metrics),
        "attempted": max(drv.attempted, 1),
        "failed": drv.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

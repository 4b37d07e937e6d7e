"""Workload definitions shared by the driver and its worker processes.

A suite workload runs its `aslkit --json verify ...` commands one after
another in one cold worker process. `random-queries` runs one-shot CLI
queries, each in a fresh `python3 -m aslkit.cli` process (see queries.py).
"""

SUITE_WORKLOADS = {
    # nearly all time goes to class closures on two huge wreath products
    "wreath-large": [
        ["--json", "verify", "simple-nonabelian"],
    ],
    # many small groups: classes, small closures, product vmul, the oracle
    "catalog-series": [
        ["--json", "verify", "log-length", "--max-order", "200"],
        ["--json", "verify", "oracle-agreement", "--max-order", "100"],
    ],
    # thousands of quotient and materialized subgroup groups, lattice joins
    "catalog-lattices": [
        ["--json", "verify", "quotient-law", "--max-order", "48"],
        ["--json", "verify", "normal-law", "--max-order", "48"],
        ["--json", "verify", "extension-law", "--max-order", "48"],
    ],
}

QUERY_WORKLOAD = "random-queries"

WORKLOADS = tuple(SUITE_WORKLOADS) + (QUERY_WORKLOAD,)


def suite_key(argv):
    """Stable name of one suite command, used as its digest key."""
    return " ".join(argv[1:])

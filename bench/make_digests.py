"""Regenerate digests.json: the canonical-output digest of each of the
first DIGEST_INPUTS inputs of every workload's default-seed pool.

    python3 bench/make_digests.py

Run it from the root of a checkout whose outputs are known to be right
(the selftest passes); a benchmark run on the default seed then counts
any op whose output digest differs as failed.
"""

import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    from spans import OFF
    from workloads import WORKLOADS
    table = {}
    for name, workload in WORKLOADS.items():
        _, items = run.build_pool(workload, run.DEFAULT_SEED,
                                  workload.pool_size)
        digests = []
        for item in items[:run.DIGEST_INPUTS]:
            out = workload.op(item, OFF)
            if not workload.check(item, out):
                raise SystemExit(f"{name}: output fails its check: {out}")
            digests.append(run.digest(out))
        table[name] = digests
    with open(run.BENCH / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()

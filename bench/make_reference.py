"""Rewrite reference.json: the output digest of every default-seed run.

Run from the root of a checkout, only on a commit whose outputs are known
to be right:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json

from outputs import REFERENCE_PATH
from run import one_pass
from workloads import WORKLOADS


def main() -> None:
    digests = {}
    for workload in WORKLOADS.values():
        seed = workload.default_seed or 0
        for outcome in one_pass(workload.runs(seed), keep_pristine=False).outcomes:
            if outcome.error:
                raise SystemExit(f"{outcome.spec.label} failed:\n{outcome.error}")
            digests[outcome.spec.label] = outcome.digest
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

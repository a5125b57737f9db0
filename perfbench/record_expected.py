"""Rewrite expected.json from one pass of every workload.

The record holds the seed-independent facts each workload's `observe`
reports: hit counts, orbit sizes, digests of hit lists, of catalog
documents and of CLI output.  Rerun it only after a deliberate change to
what postlie computes or prints, and review the diff of expected.json.

    python3 perfbench/record_expected.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    record = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.setup(0, Path(workdir))
            record[name] = workload.observe(inputs, workload.run(inputs))
            print("recorded %s" % name, flush=True)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

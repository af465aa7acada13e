"""Record the reference table that every benchmark op is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs every input of the pool of each workload, at full and smoke size,
once, and stores what ``Workload.observe`` returns in ``reference.json``.
The table in the repository was recorded from the seed commit; record it
again only for a change that is meant to alter detection results, and say
so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def record(names) -> dict:
    table = json.loads(workloads.REFERENCE_PATH.read_text()) if workloads.REFERENCE_PATH.exists() else {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for name in names:
            for smoke in (True, False):
                w = workloads.build(name, 0, smoke, Path(tmp))
                entries = {}
                for key in w.all_keys():
                    output = w.op(key)
                    try:
                        entries[w.ref_key(key)] = w.observe(key, output)
                    finally:
                        w.cleanup(output)
                    print(name, w.size, w.ref_key(key), entries[w.ref_key(key)], flush=True)
                table.setdefault(name, {})[w.size] = entries
    return table


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    table = record(names)
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Re-pin the digests the benchmark checks every answered point against.

    PYTHONPATH=src python3 perfbench/pin.py

Simulates every workload's grid once, in canonical preset order, in one
in-process ``Session`` on an empty cache, and rewrites ``digests.json``.
Benchmark runs shuffle the order, serve or replay the points, and must
reproduce these bits exactly.  Re-pin only in the commit that changes
the timing model on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (DIGESTS_FILE, WORKLOADS, grid_digest,  # noqa: E402
                    memsys_totals, point_key, result_digest)
from worker import grid_points  # noqa: E402


def main() -> int:
    from repro.emulib.fingerprint import source_fingerprint
    from repro.exp import Session

    grids = {name: grid_points(name) for name in WORKLOADS}
    union = list(dict.fromkeys(p for grid in grids.values() for p in grid))
    workdir = tempfile.mkdtemp(prefix=".pin-", dir=Path.cwd())
    try:
        results = Session(Path(workdir) / "cache", jobs=1).run(union)
    finally:
        shutil.rmtree(workdir)
    pinned = {}
    for name, grid in grids.items():
        dicts = {point_key(p.payload()): results[p].to_dict() for p in grid}
        digests = {key: result_digest(r) for key, r in sorted(dicts.items())}
        pinned[name] = {"points_count": len(digests),
                        "grid_digest": grid_digest(digests),
                        "memsys": memsys_totals(dicts.values()),
                        "points": digests}
    DIGESTS_FILE.write_text(json.dumps(
        {"pinned_at_salt": source_fingerprint(), "workloads": pinned},
        indent=1, sort_keys=True) + "\n")
    for name, entry in pinned.items():
        print(f"{name}: {entry['points_count']} points, "
              f"grid digest {entry['grid_digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the golden digests that the benchmark checks outputs against.

    python3 bench/capture_goldens.py

Run it only on a commit whose outputs are known to be right: it overwrites
bench/goldens.json with the digests of the current library's outputs.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CAPTURED = ("verify-corpus", "eval-laws", "cli-cold")


def main():
    goldens = {}
    for name in CAPTURED:
        workload = workloads.WORKLOADS[name]()
        workload.setup()
        try:
            goldens[name] = workload.goldens_for_capture()
        finally:
            workload.close()
        print(f"{name}: {len(goldens[name])} digests", file=sys.stderr)
    with open(workloads.GOLDENS_FILE, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

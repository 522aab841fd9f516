"""Set-up as a user pays it: a fresh interpreter imports ``stairwalk.cli``,
builds the workload's schedules and writes them as JSON files.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload NAME --dir DIR

Prints one JSON line with the time of each part; the caller times the whole
process from spawn to exit.
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path


def main():
    t0 = time.perf_counter()
    cli = importlib.import_module("stairwalk.cli")
    t1 = time.perf_counter()
    sw = importlib.import_module("stairwalk")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    t2 = time.perf_counter()
    schedules = workloads.build_schedules(args.workload, sw)
    t3 = time.perf_counter()
    workloads.write_schedules(schedules, Path(args.dir))
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "write_s": t4 - t3,
                      "module": cli.__file__}))


if __name__ == "__main__":
    main()

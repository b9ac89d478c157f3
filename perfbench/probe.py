"""Set-up probe, run in a fresh interpreter by run.py.

Imports risrates.cli from the checkout's src/ and parses the configs named
on the command line, then prints its import and parse times as JSON.
Usage: python3 perfbench/probe.py CONFIG.json [CONFIG.json ...]
"""

import json
import sys
import time
from pathlib import Path


def main(configs: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import risrates.cli  # noqa: F401
    t1 = time.perf_counter()
    from risrates.config import load_config
    for path in configs:
        load_config(path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

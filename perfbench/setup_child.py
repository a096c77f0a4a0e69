"""Set-up probe: one fresh process importing neqtemp and running one report.

Run by ``run.py`` as ``python3 setup_child.py <workload> <item.npz>``. Prints
one JSON line with the monotonic time at which the first report ended and the
seconds spent loading the input item, which the parent subtracts. Set-up is
interpreter start, ``import neqtemp`` (with numpy) and the lazy imports and
first-call costs of one report, but not the benchmark's own input handling.
"""

import json
import os
import sys
import time
import traceback


def main() -> int:
    workload, item_path = sys.argv[1], sys.argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import numpy  # noqa: F401  (imported by neqtemp; counted as set-up)

    t0 = time.monotonic()
    from inputs import load_item

    item = load_item(item_path)
    load_s = time.monotonic() - t0

    import reports

    # A failing report still ends set-up; the parent's warm-up runs the same
    # input and counts the failure.
    try:
        reports.WORKLOADS[workload].report(item)
    except Exception:
        traceback.print_exc()
    print(json.dumps({"end": time.monotonic(), "load_s": load_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

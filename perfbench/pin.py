"""Write the pinned kmm-exact answers that the benchmark compares against.

    python3 perfbench/pin.py SEED_FIRST SEED_LAST INSTANCES

Solves the first INSTANCES instances of every seed in the range with the
current ExactSolver and stores ``[mis, max_sq]`` per instance in
``perfbench/pinned.json``.  The pins catch a later change that alters an
answer; regenerate them only when an answer is shown to have been wrong.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from sepkit.exactkmm import ExactSolver  # noqa: E402

import workloads  # noqa: E402


def main(first: int, last: int, count: int) -> None:
    wl = workloads.KmmExact()
    pins = {}
    for seed in range(first, last + 1):
        rows = []
        for i in range(count):
            pts, _ = wl.instance(seed, i)
            rep = ExactSolver(pts, wl.k).solve(wl.k)
            rows.append([rep.mis, str(rep.max_sq)])
        pins[str(seed)] = rows
        print(f"seed {seed}: {count} instances pinned", flush=True)
    body = ",\n".join(f"  {json.dumps(s)}: {json.dumps(r)}" for s, r in pins.items())
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        fh.write(f"{{{json.dumps(wl.name)}: {{\n{body}\n}}}}\n")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:4]))

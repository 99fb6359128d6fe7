"""Write reference.json: each workload's outputs on its fixed canary input.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, at the commit whose outputs are the
reference.  ``run.py`` reports ``check.max_abs_dev`` against this file.
"""

import json
import os
import sys

import run


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    env = run.child_env(root)
    reference = {}
    for name, wl in run.WORKLOADS.items():
        numbers, problems = run.canary(wl, root, env)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference[name] = numbers
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the workload driver from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments are passed through to perfbench/workloads.exe, whose last
line of standard output is the JSON result (see perfbench/README.md).
Build output goes to standard error.  Dune's shared cache is disabled so
the build reads and writes nothing outside the checkout.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "workloads.exe")
BUILD = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "perfbench/workloads.exe"]


def main():
    try:
        code = subprocess.run(BUILD, stdout=sys.stderr).returncode
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed (exit %d)" % code, file=sys.stderr)
        return 1
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py <workload> <src-dir>

Prints the seconds from the first line of this script to a warmed-up
workload: imports of numpy, scipy and eulernerve, and the cochains, tables
and quadrature rules the workload's certificates use.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main(argv: list[str]) -> int:
    name, src = argv
    sys.path.insert(0, src)
    import workloads

    workloads.WORKLOADS[name].warm_up()
    print(time.perf_counter() - _START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Child process that times the benchmark's set-up: interpreter start,
import of numpy and dtxalign, and resolution of a workload's config.

Usage: setup_probe.py WORKLOAD CONFIG_YAML SEED
Prints "ready" once the config is resolved, which is where the parent
stops its clock: the next step of a run would be the first drop.
"""

import sys

import machine


def main() -> int:
    workload, cfg_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    machine.cap_threads()
    import numpy  # noqa: F401  (part of the set-up being timed)

    import workloads

    program = workloads.load_program()
    workloads.WORKLOADS[workload].resolve_config(program, cfg_path, seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

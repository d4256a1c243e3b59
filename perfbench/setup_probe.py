"""Set-up probe, run in a fresh interpreter by the benchmark.

Times `import <package>` plus `load_config` of every config of a workload
under a hostclock.Sampler and prints the sampler's record as JSON on stdout;
the benchmark corrects it for host contention. Argument 1 is the directory
to import from, argument 2 the package: dighydro, or its frozen copy that
the benchmark takes as its time reference. Standard input is a JSON list of
[config path, overrides] pairs. Nothing is imported before the clock starts
but the standard library and hostclock, which uses only the standard
library; the Sampler warms its kernel up before its clock starts.
"""

import importlib
import json
import sys

from hostclock import Sampler


def main() -> None:
    jobs = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    with Sampler() as clock:
        package = importlib.import_module(sys.argv[2])

        for path, overrides in jobs:
            package.load_config(path, overrides)
    print(json.dumps(clock.record()))


if __name__ == "__main__":
    main()

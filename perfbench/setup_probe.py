"""Time one cold set-up of a workload and print the seconds as the last line.

Set-up is what a fresh process pays before its first operation: importing
numpy, SciPy and pxlap, generating the seeded inputs, and building the config
or ProblemSpec.  run.py starts this script several times per run and reports
the median as setup_s.

    python3 perfbench/setup_probe.py --workload verify-harness --seed 0 --workdir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_env  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    bench_env.prepare()
    import workloads

    workloads.get(args.workload).setup(args.seed, Path(args.workdir))
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()

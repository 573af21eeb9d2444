"""Set-up probe: import circulant_ilc, generate one run's inputs, print "ready".

Usage: python benchmarks/setup_probe.py WORKLOAD SEED TINY

run.py starts this several times and times each from the spawn to the ready
line; the median is the benchmark's setup_s.
"""

import sys

import bench_env

bench_env.use_checkout_src()  # first, so circulant_ilc's import includes numpy and scipy

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1:4]
    workloads.generate(name, int(seed), tiny == "1")
    print("ready", flush=True)

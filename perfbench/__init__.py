"""End-to-end benchmark of the reproduction's build, drain and resume paths.

Run ``python3 perfbench/run.py --workload build --seed 1 --seconds 10
--trace 0`` from the repository root; see :mod:`perfbench.run`.
"""

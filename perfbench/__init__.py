"""The repository benchmark: cold all-pairs queries, sharded sweeps and
mixed service traffic, with answer checks and per-layer traced timings.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, their parameters and the ROADMAP predictions they carry live
in ``perfbench/workloads.json``.
"""

"""The repository's pipeline benchmark (``BENCHMARK.json``).

Three workloads, each the home of different layers:

* ``corpus`` (:mod:`perfbench.corpus`): the paper's 15 programs x five
  compile cells, instantiated and run in process — the engine.
* ``fresh-batch`` (:mod:`perfbench.fresh`): never-seen random programs
  through ``Session.run_many`` — compile stages, the pool, store writes.
* ``serve-warm`` (:mod:`perfbench.serve`): warm traffic against
  ``python -m repro serve`` — admission, IPC, cache hits, instantiate.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace
0|1`` runs one of them; :mod:`perfbench.reduce` turns the traced phase
into the per-layer split listed in :mod:`perfbench.layers`, and
:mod:`perfbench.calibrate` normalises in-process times to a reference
host speed.
"""

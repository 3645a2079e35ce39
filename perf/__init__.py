"""The repo's layered host-time benchmark (see ``perf/README.md``).

``python -m perf.run`` measures what a user of the simulator pays — host
seconds and memory per simulated transaction — on four fixed workloads, and
with ``--trace 1`` attributes that cost to the modules of ``src/repro``.
``BENCHMARK.json`` at the repo root is the metric catalogue (names, units,
directions, bounds); ``python -m perf.compare`` turns two result documents
into verdicts.

The package drives the program only through ``repro.ScenarioSpec``,
``repro.build``, ``Cluster.run`` and public result fields, so clean-up PRs
inside ``src/`` cannot break it.
"""

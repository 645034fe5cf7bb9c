"""Paper-figure benchmark for the PROP reproduction.

Run from the repository root::

    python3 propbench/run.py --workload fig5a-inline --seed 0 --seconds 30 --trace 0

Each run repeats one complete ``run_experiment`` figure point in fresh
worker processes for ``--seconds`` and prints one JSON object as its
last stdout line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` a per-layer ledger timed from outside the program (see
:mod:`propbench.ledger`).  Raw per-run records land in
``propbench/out/``.  The benchmark's own tests::

    PYTHONPATH=src python -m pytest propbench/tests
"""

"""Frozen test oracles: verbatim pre-optimisation copies of fast paths.

Each module preserves the straightforward implementation a fast path
replaced, so differential tests can hold the fast path to bit-identical
behaviour:

- :mod:`tests.oracles.mem` — the dict-of-lists caches and enum-dispatch
  MESI directory behind ``repro.mem``;
- :mod:`tests.oracles.rack` — the per-request rack hot path behind
  ``repro.cluster.rack``;
- :mod:`tests.oracles.cores` — the generator spinning, MWAIT and
  HyperPlane loops behind the callback cores of ``repro.sdp`` and
  ``repro.core``.

They live outside ``src/`` because nothing in the package uses them.
Import them from the checkout root (pytest and
``python -m benchmarks.perf.gates`` both run there). Do not optimise
them: a fast-path change is only trustworthy because these copies did
not move.
"""

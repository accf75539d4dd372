"""The repository benchmark: host cost of the simulations users run.

See ``hostbench/README.md``; the entry point is ``hostbench/run.py``.
"""

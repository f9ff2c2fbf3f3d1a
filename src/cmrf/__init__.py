"""Constrained Markov random fields in single-variable form.

Exact constraint-aware sampling by iterated resampling of violated
constraints, brute-force enumeration oracles for verification, and
contrastive-divergence training, with generators for benchmark constraint
families and a reproducible file-based CLI.

The package root holds only `__version__`: every other name is imported from
the module that defines it, so importing a lower layer loads no upper one.
"""

__version__ = "0.1.0"

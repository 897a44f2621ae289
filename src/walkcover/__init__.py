"""Covering probabilities of lattice sets and paths under simple random walk.

The code lives in the modules (``exact``, ``montecarlo``, ``rng``,
``green``, ``hitting``, ``reflect``, ``comb``, ``lattice`` and ``cli``);
the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"

"""Modular-variable observables, Bohmian trajectories, and density-matrix
dynamics for a superposition of two separated Gaussian wave packets in a
uniform gravitational field, with and without environmental friction and
diffusion.  Every closed form ships with an independent numerical oracle.

The API is the submodules (``modvar.caldeira_leggett``, ``modvar.oracles``,
...); the package re-exports nothing, so each command loads only what it runs.
"""

__version__ = "0.1.0"

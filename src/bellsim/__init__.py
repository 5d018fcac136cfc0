"""Simulation toolkit for testing Clauser-Horne inequalities on four-mode light.

Three engines compute the same detection rates: a truncated Fock-space
engine for arbitrary states, a covariance-matrix engine for centered
Gaussian states, and closed forms for coherent states and their mixtures,
cross-validated against each other.

Every name lives in its module (``from bellsim import fock, detection``);
importing the package itself loads no engine and no numpy.
"""

__version__ = "0.1.0"

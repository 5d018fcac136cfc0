"""State helpers the tests share; the package itself needs none of them."""

import math

import numpy as np

from bellsim import coherent, detection, fock
from bellsim.policy import DEFAULT_POLICY


def vacuum_state(mode_count, cutoff):
    return fock.number_state((0,) * mode_count, cutoff)


def vacuum_probability(state, modes):
    """Probability that every listed mode carries zero photons."""
    mask = (state.basis.occupations[:, list(modes)] == 0).all(axis=1)
    if isinstance(state, fock.OccupationState):
        return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    return float(np.real(np.sum(np.diag(state.matrix)[mask])))


def totals(basis):
    """Total photon number of every basis state."""
    return basis.occupations.sum(axis=1)


def norm(state):
    return float(np.linalg.norm(state.amplitudes))


def normalized(state):
    n = norm(state)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return fock.OccupationState(state.basis, state.amplitudes / n, state.truncation_tail)


def overlap(state, other):
    if other.basis is not state.basis:
        raise ValueError("states live on different bases")
    return complex(np.vdot(state.amplitudes, other.amplitudes))


def squeezed_vacuum_amplitudes(u, cutoff):
    """Number-basis amplitudes of a single-mode squeezed vacuum.

    c_{2m} = (1/sqrt(cosh u)) (-tanh u)^m sqrt((2m)!) / (2^m m!), zero on
    odd photon numbers; truncated at the cutoff.
    """
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    c = 1.0 / math.sqrt(math.cosh(u))
    amp[0] = c
    t = math.tanh(u)
    for m in range(1, cutoff // 2 + 1):
        c *= -t * math.sqrt((2 * m - 1) / (2 * m))
        amp[2 * m] = c
    return amp


def random_mixture(rng, **draws):
    """Draw a classical mixture: flat simplex weights, box-uniform amplitudes.

    Takes the keywords of ``coherent._mixture_draws`` (``max_components``,
    ``amplitude_scale``) and draws what each classical-suite trial draws.
    """
    weights, parts = coherent._mixture_draws(rng, **draws)
    return coherent.ClassicalMixture(weights, coherent._complex(parts))


def haar_unitary(rng, n=4):
    """Haar-distributed U(n) via QR of a complex Gaussian matrix."""
    return coherent._haar_from_gaussian(coherent._complex(rng.normal(size=(2, n, n))))


def mixture_fock_report(mixture, angles, cutoff, policy=DEFAULT_POLICY):
    """Fock-engine CH report of a mixture, its components synthesized at a total cutoff.

    The rates are linear in the state, so the mixed state of the pure
    components gives the weight average of their rates; the report's
    error bar is the weighted truncation tail.
    """
    state = fock.synthesize_coherent_mixture(mixture.weights, mixture.components, cutoff, policy)
    return detection.ch_functional(state, angles, policy)

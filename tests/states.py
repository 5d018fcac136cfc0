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


def _mixture_draws(rng, max_components=coherent._MAX_COMPONENTS, amplitude_scale=2.0):
    """Raw draws of a classical mixture: flat simplex weights, box-uniform amplitudes.

    Returns (weights[c], parts[2, c, 4]), with the real parts of the
    amplitudes drawn before their imaginary parts (see ``coherent._complex``).
    """
    count = int(rng.integers(1, max_components + 1))
    # what rng.dirichlet(np.ones(count)) draws, bit for bit, without its per-call overhead
    weights = rng.standard_exponential(count)
    weights *= 1.0 / weights.sum()
    parts = rng.uniform(-amplitude_scale, amplitude_scale, size=(2, count, 4))
    return weights, parts


def random_mixture(rng, **draws):
    """Draw a classical mixture: flat simplex weights, box-uniform amplitudes.

    Takes the keywords of ``_mixture_draws`` (``max_components``,
    ``amplitude_scale``); the classical suite draws from the same
    distributions.
    """
    weights, parts = _mixture_draws(rng, **draws)
    return coherent.ClassicalMixture(weights, coherent._complex(parts))


def haar_unitary(rng, n=4):
    """Haar-distributed U(n) via QR of a complex Gaussian matrix."""
    return coherent._haar_from_gaussian(coherent._complex(rng.normal(size=(2, n, n))))


def classical_trial_inputs(seed, trial, amplitude_scale=2.0):
    """Trial ``trial`` of the classical suite, rebuilt from its documented recipe.

    Returns (mixture, angles): row ``trial`` of
    Generator(PCG64(seed)).random((trials, 82)), reached here by drawing
    and dropping the rows before it, holds the count, five weights, 40
    amplitude parts, 16 Gaussian moduli, 16 phases and four angles.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.random(82 * trial)
    u = rng.random(82)
    count = 1 + int(math.floor(5 * u[0]))
    weights = -np.log1p(-u[1:1 + count])
    weights /= weights.sum()
    parts = amplitude_scale * (2.0 * u[6:46].reshape(2, 5, 4)[:, :count] - 1.0)
    moduli, phases = u[46:78].reshape(2, 4, 4)
    gaussian = np.sqrt(-np.log1p(-moduli)) * np.exp(2j * np.pi * phases)
    mixture = coherent.ClassicalMixture(weights, parts[0] + 1j * parts[1])
    unitary = coherent._haar_from_gaussian(gaussian)
    return mixture.transformed(unitary), detection.AngleSettings(*(np.pi * u[78:82]))


def mixture_fock_report(mixture, angles, cutoff, policy=DEFAULT_POLICY):
    """Fock-engine CH report of a mixture, its components synthesized at a total cutoff.

    The rates are linear in the state, so the mixed state of the pure
    components gives the weight average of their rates; the report's
    error bar is the weighted truncation tail.
    """
    state = fock.synthesize_coherent_mixture(mixture.weights, mixture.components, cutoff, policy)
    return detection.ch_functional(state, angles, policy)

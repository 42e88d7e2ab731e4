"""Kronecker-built reference matrices for the model Hamiltonians.

The package writes every Hamiltonian entry by entry from the Fock labels
of the basis.  The tests hold those matrices to the textbook route built
here instead: each single-factor block (ladder, number, Pauli) is embedded
in the composite space by ``np.kron`` with identities on the other
factors, in the package's factor order (factor 0 slowest) and two-level
convention (index 0 = |g>, 1 = |e>, ``sigma_z |e> = +|e>``).

Every function returns a plain dense complex ``(d, d)`` array, but
``product_state``, which returns the ``(d,)`` amplitudes of a product state,
and the two converters between a dense matrix and the package's
``Hamiltonian`` record (a diagonal plus hops), ``dense`` and ``record``.
"""

from functools import reduce

import numpy as np

from quantex import FactorError, Hamiltonian, SpaceDescriptor, TwoLevel


def _embed(space: SpaceDescriptor, factor_index: int, block: np.ndarray) -> np.ndarray:
    mats = [block if i == factor_index else np.eye(f.dim, dtype=complex)
            for i, f in enumerate(space.factors)]
    return reduce(np.kron, mats)


def product_state(vectors) -> np.ndarray:
    """The product of one amplitude vector per factor, in factor order."""
    return reduce(np.kron, [np.asarray(v, dtype=complex) for v in vectors])


def level_projector(space: SpaceDescriptor, factor_index: int, level: int) -> np.ndarray:
    """|level><level| on one factor, identity on the others."""
    dim = space.factor(factor_index).dim
    return _embed(space, factor_index, np.diag(np.arange(dim) == level).astype(complex))


def annihilation(space: SpaceDescriptor, factor_index: int) -> np.ndarray:
    """Lowering operator on a bosonic factor: <n-1| a |n> = sqrt(n)."""
    dim = space.boson_factor(factor_index).dim
    block = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return _embed(space, factor_index, block)


def creation(space: SpaceDescriptor, factor_index: int) -> np.ndarray:
    """Raising operator; annihilates the top truncated level."""
    return annihilation(space, factor_index).conj().T


def number(space: SpaceDescriptor, factor_index: int) -> np.ndarray:
    """Occupation operator diag(0 .. dim-1) on a bosonic factor."""
    dim = space.boson_factor(factor_index).dim
    return _embed(space, factor_index, np.diag(np.arange(dim, dtype=complex)))


_PAULI_BLOCKS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "z": np.array([[-1, 0], [0, 1]], dtype=complex),
    "plus": np.array([[0, 0], [1, 0]], dtype=complex),
    "minus": np.array([[0, 1], [0, 0]], dtype=complex),
}


def pauli(space: SpaceDescriptor, factor_index: int, which: str) -> np.ndarray:
    """Pauli operator on a two-level factor; which in x, y, z, plus, minus."""
    if not isinstance(space.factor(factor_index), TwoLevel):
        raise FactorError(f"factor {factor_index} is not a two-level system")
    return _embed(space, factor_index, _PAULI_BLOCKS[which])


def total_number(space: SpaceDescriptor) -> np.ndarray:
    """Total excitation number: a+a on every bosonic factor plus
    sigma+ sigma- on every two-level factor."""
    return sum(pauli(space, i, "plus") @ pauli(space, i, "minus")
               if isinstance(f, TwoLevel) else number(space, i)
               for i, f in enumerate(space.factors))


def jaynes_cummings(p, counter_rotating: bool = False) -> np.ndarray:
    """nu a+a + (omega/2) sigma_z + g (a sigma+ + a+ sigma-), or with
    g (a sigma- + a+ sigma+) in the counter-rotating order."""
    sp = p.space
    a, ad = annihilation(sp, 0), creation(sp, 0)
    up, down = pauli(sp, 1, "plus"), pauli(sp, 1, "minus")
    inter = a @ down + ad @ up if counter_rotating else a @ up + ad @ down
    return p.nu * number(sp, 0) + 0.5 * p.omega * pauli(sp, 1, "z") + p.g * inter


def beam_splitter(p) -> np.ndarray:
    """nu a+a + omega b+b + g (a b+ + b a+)."""
    sp = p.space
    inter = annihilation(sp, 0) @ creation(sp, 1) + annihilation(sp, 1) @ creation(sp, 0)
    return p.nu * number(sp, 0) + p.omega * number(sp, 1) + p.g * inter


def dense(h: Hamiltonian) -> np.ndarray:
    """The matrix of a Hamiltonian record: its diagonal, plus ``amp`` at
    (dst, src) and ``conj(amp)`` at (src, dst) for each hop; real when the
    diagonal and the hop amplitudes are."""
    src, dst, amp = h.hops
    m = np.diag(h.diagonal).astype(np.result_type(h.diagonal, amp))
    m[dst, src] = amp
    m[src, dst] = np.conj(amp)
    return m


def record(space: SpaceDescriptor, m: np.ndarray) -> Hamiltonian:
    """The Hamiltonian record of a dense hermitian matrix: its diagonal and
    one hop per nonzero entry above it."""
    rows, cols = np.nonzero(np.triu(m, 1))
    return Hamiltonian(space, m.diagonal(), (cols, rows, m[rows, cols]))

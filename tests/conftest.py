"""Shared random generators for the test suite.

Tests draw from numpy's seeded Generator; the library's own sampling uses
its internal deterministic stream, so the two never interact.
"""

import numpy as np
import pytest

from dilationkit import Framing, Ovm, Representation


def random_matrix(rng, rows, cols, complex_field=False):
    m = rng.normal(size=(rows, cols))
    if complex_field:
        m = m + 1j * rng.normal(size=(rows, cols))
    return m


def random_psd(rng, dim, rank=None, complex_field=False):
    rank = dim if rank is None else rank
    b = random_matrix(rng, dim, rank, complex_field)
    return b @ b.conj().T


def random_positive_probability_ovm(rng, atom_count, dim, complex_field=False):
    """Positive atoms renormalized so they sum to the identity."""
    atoms = [random_psd(rng, dim, complex_field=complex_field) for _ in range(atom_count)]
    total = sum(atoms)
    vals, vecs = np.linalg.eigh(total)
    inv_root = vecs @ ((1.0 / np.sqrt(vals))[:, None] * vecs.conj().T)
    return Ovm(np.stack([inv_root @ a @ inv_root for a in atoms]))


def full_rank_povm(rng, atom_count, dim):
    """Exactly Hermitian, full-rank positive complex atoms summing to the
    identity, the case in which classify certifies every statistic."""
    atoms = [
        random_psd(rng, dim, complex_field=True) + 0.5 * np.eye(dim)
        for _ in range(atom_count)
    ]
    total = sum(atoms)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    atoms = [inv_root @ a @ inv_root for a in atoms]
    return Ovm(np.stack([(a + a.conj().T) / 2 for a in atoms]))


def rank_one_parseval_povm(rng, atom_count, dim):
    """Atoms x_j x_j* of a complex Parseval frame x_1 .. x_n (the rows of a
    matrix with orthonormal columns), symmetrized: the frame-induced case."""
    g = rng.normal(size=(atom_count, dim)) + 1j * rng.normal(size=(atom_count, dim))
    q, _ = np.linalg.qr(g)
    atoms = np.einsum("ji,jk->jik", q.conj(), q)
    return Ovm((atoms + atoms.conj().transpose(0, 2, 1)) / 2)


def random_projection_valued_probability_ovm(rng, atom_count, dim, complex_field=False):
    """Idempotent atoms summing to the identity: a coordinate partition
    conjugated by a random (generally non-unitary) similarity."""
    while True:
        r = random_matrix(rng, dim, dim, complex_field)
        if np.linalg.cond(r) < 50:
            break
    r_inv = np.linalg.inv(r)
    cuts = sorted(rng.choice(np.arange(1, dim), size=min(atom_count - 1, dim - 1), replace=False)) if atom_count > 1 and dim > 1 else []
    edges = [0, *cuts, dim]
    atoms = []
    for j in range(atom_count):
        diag = np.zeros(dim)
        if j < len(edges) - 1:
            diag[edges[j] : edges[j + 1]] = 1.0
        atoms.append(r @ (diag[:, None] * r_inv))
    return Ovm(np.stack(atoms))


def random_general_ovm(rng, atom_count, dim_out, dim_in, complex_field=False):
    return Ovm(
        np.stack(
            [random_matrix(rng, dim_out, dim_in, complex_field) for _ in range(atom_count)]
        )
    )


def random_framing(rng, count, dim, complex_field=False):
    """A spanning family paired with its canonical dual."""
    assert count >= dim
    while True:
        x = random_matrix(rng, count, dim, complex_field)
        s = x.T @ x.conj()
        if np.linalg.cond(s) < 100:
            break
    y = np.linalg.solve(s, x.T).T
    return Framing(x, y)


def random_representation(rng, ovm, term_count, complex_field=False):
    coeffs = rng.normal(size=term_count)
    if complex_field:
        coeffs = coeffs + 1j * rng.normal(size=term_count)
    masks = tuple(int(rng.integers(0, ovm.full_mask + 1)) for _ in range(term_count))
    vectors = random_matrix(rng, term_count, ovm.dim_in, complex_field)
    return Representation(coeffs, masks, vectors)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)

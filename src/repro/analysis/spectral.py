"""Spectral-gap computations.

``lambda_G`` in the paper is the second-largest eigenvalue of the
(normalized) adjacency matrix of the possibly irregular contraction
multigraph; the spectral gap is ``1 - lambda_G``.  For a d-regular graph
the normalized adjacency is simply ``A / d``; for the contractions DEX
produces we use the symmetric normalization ``D^{-1/2} A D^{-1/2}``
(same eigenvalues as the random-walk matrix ``D^{-1} A``).

Dense solvers are used below :data:`_DENSE_CUTOFF` vertices, sparse
Lanczos (``scipy.sparse.linalg.eigsh``) above -- per the HPC guides,
choosing the right linear-algebra primitive *is* the optimization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import VirtualGraphError

_DENSE_CUTOFF = 600


def normalized_adjacency(adjacency: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """``D^{-1/2} A D^{-1/2}`` with degrees = row sums (multiplicities and
    self-loop conventions are whatever the caller baked into ``A``)."""
    A = sp.csr_matrix(adjacency, dtype=np.float64)
    degrees = np.asarray(A.sum(axis=1)).ravel()
    if (degrees <= 0).any():
        raise VirtualGraphError("graph has an isolated vertex (zero degree)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    D = sp.diags(inv_sqrt)
    return sp.csr_matrix(D @ A @ D)


def second_eigenvalue(adjacency: sp.spmatrix | np.ndarray) -> float:
    """Second-largest eigenvalue of the normalized adjacency matrix.

    The largest is always 1 (eigenvector ``D^{1/2} 1``); the returned
    value is the paper's ``lambda_G``.
    """
    A = sp.csr_matrix(adjacency, dtype=np.float64)
    n = A.shape[0]
    if n == 1:
        return 0.0
    N = normalized_adjacency(A)
    if n <= _DENSE_CUTOFF:
        eigenvalues = np.linalg.eigvalsh(N.toarray())
        return float(eigenvalues[-2])
    # Lanczos for the two algebraically-largest eigenvalues.
    try:
        vals = spla.eigsh(N, k=2, which="LA", return_eigenvectors=False, tol=1e-8)
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        vals = exc.eigenvalues
        if vals is None or len(vals) < 2:
            eigenvalues = np.linalg.eigvalsh(N.toarray())
            return float(eigenvalues[-2])
    vals = np.sort(vals)
    return float(vals[-2])


def spectral_gap(adjacency: sp.spmatrix | np.ndarray) -> float:
    """``1 - lambda_G``; the quantity Theorem 1 keeps constant."""
    return 1.0 - second_eigenvalue(adjacency)


class SpectralTracker:
    """Warm-started spectral-gap measurements across churn steps.

    Repeated measurements of a slowly-changing graph are the common case
    (the experiment runner samples every few steps); a cold dense solve is
    O(n^3) per call below the cutoff and a cold Lanczos re-discovers
    nearly the same Krylov subspace every time.  The tracker keeps the
    previous second eigenvector, maps it onto the current node ordering
    (churn only adds/removes a handful of rows between samples), and hands
    it to ARPACK as the starting vector -- so repeated measurements always
    take the sparse path regardless of the dense cutoff, converging in a
    few iterations.  Results agree with :func:`second_eigenvalue` to
    solver tolerance; only the iteration count changes.
    """

    #: below this many nodes ARPACK (k=2) is not applicable / not worth it
    _DENSE_FLOOR = 8

    def __init__(self, tol: float = 1e-8):
        self.tol = tol
        self._vec: np.ndarray | None = None
        self._index: dict[int, int] = {}

    def gap(self, order: list[int], adjacency: sp.spmatrix | np.ndarray) -> float:
        """``1 - lambda_G`` for the graph whose rows follow ``order``."""
        return 1.0 - self.second_eigenvalue(order, adjacency)

    def measure(self, graph) -> float:
        """``1 - lambda_G`` of a live :class:`DynamicMultigraph`.

        Pulls the CSR the graph assembles from its array adjacency
        (churn between samples only re-emits the dirty rows; the
        assembly itself is vectorized and memoized until the next
        change) and warm-starts Lanczos from the previous call's
        eigenvector -- the fast path for the repeated gap measurements
        of the experiment runner."""
        order, adjacency = graph.to_sparse_adjacency()
        return self.gap(order, adjacency)

    def second_eigenvalue(
        self, order: list[int], adjacency: sp.spmatrix | np.ndarray
    ) -> float:
        n = len(order)
        A = sp.csr_matrix(adjacency, dtype=np.float64)
        if A.shape[0] != n:
            raise VirtualGraphError(
                f"ordering of length {n} does not match matrix of size {A.shape[0]}"
            )
        if n == 1:
            return 0.0
        N = normalized_adjacency(A)
        if n < self._DENSE_FLOOR:
            eigenvalues, eigenvectors = np.linalg.eigh(N.toarray())
            self._remember(order, eigenvectors[:, -2])
            return float(eigenvalues[-2])
        v0 = self._warm_start(order, n)
        try:
            vals, vecs = spla.eigsh(N, k=2, which="LA", v0=v0, tol=self.tol)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
            if exc.eigenvalues is not None and len(exc.eigenvalues) >= 2:
                vals = np.sort(exc.eigenvalues)
                return float(vals[-2])
            eigenvalues = np.linalg.eigvalsh(N.toarray())
            return float(eigenvalues[-2])
        second = int(np.argsort(vals)[-2])
        self._remember(order, vecs[:, second])
        return float(vals[second])

    def _remember(self, order: list[int], vec: np.ndarray) -> None:
        self._vec = np.asarray(vec, dtype=np.float64)
        self._index = {u: i for i, u in enumerate(order)}

    def _warm_start(self, order: list[int], n: int) -> np.ndarray | None:
        """Previous second eigenvector mapped onto the current ordering
        (rows for nodes that joined since default to the previous mean,
        keeping the vector roughly in the old Krylov subspace)."""
        if self._vec is None or not self._index:
            return None
        prev, index = self._vec, self._index
        fill = float(prev.mean())
        v0 = np.full(n, fill)
        hit = 0
        for i, u in enumerate(order):
            j = index.get(u)
            if j is not None:
                v0[i] = prev[j]
                hit += 1
        if hit == 0:
            return None
        norm = np.linalg.norm(v0)
        if not np.isfinite(norm) or norm < 1e-12:
            return None
        return v0 / norm


def spectral_gap_of_multigraph(
    nodes: list[int], edge_multiplicities: dict[tuple[int, int], int]
) -> float:
    """Spectral gap of a multigraph given as ``{(u, v): multiplicity}``
    with ``u <= v``; self-loops ``(u, u)`` contribute their multiplicity
    once to the diagonal (the p-cycle convention of [14])."""
    index = {u: i for i, u in enumerate(sorted(nodes))}
    n = len(index)
    if n == 0:
        raise VirtualGraphError("empty multigraph")
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for (u, v), mult in edge_multiplicities.items():
        if mult <= 0:
            continue
        i, j = index[u], index[v]
        if i == j:
            rows.append(i)
            cols.append(i)
            data.append(float(mult))
        else:
            rows.append(i)
            cols.append(j)
            data.append(float(mult))
            rows.append(j)
            cols.append(i)
            data.append(float(mult))
    A = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return spectral_gap(A)

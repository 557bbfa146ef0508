"""Dense linear algebra for small genotype systems: thin wrappers over LAPACK.

numpy's LAPACK routines do the arithmetic; the wrappers keep the checks and
error contracts the rest of the package relies on, and no other module
calls a numpy.linalg kernel but norm. The one symmetric eigensolver is
_symmetric_eigh, an eigh that keeps the factorizations of the two most
recently used matrices, so a symmetric matrix (R+M, D - M~) is factorized
once however many solvers ask for it in turn: for its descending spectrum,
its extreme eigenvalues, its nonsingularity or its Perron vector. The
dominant eigenpair of a Metzler matrix is the eigh or eig eigenvector after
one shifted nonnegative step, checked by its residual relative to ||A||.
The SVD is the only judge of a singular matrix: a linear solve rejects a
matrix by its smallest singular value before the LU solve, unless the
matrix is exactly symmetric and its eigenvalues prove it nonsingular by a
wide margin. A Newton step's solve (_guarded_solve) runs no SVD; it is
judged by its growth, bounded by what that SVD rule accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotIrreducible, NotSymmetric, SingularMatrix

_SYM_RTOL = 1e-12  # asymmetry bound, relative to max(1, max |entry|)
_PIVOT_REL = 1e-14
_EIG_MARGIN = 1e-8  # min |lambda| proving a symmetric matrix nonsingular, relative to ||A||_inf
_PERRON_TOL = 1e-13


@dataclass(frozen=True)
class PerronResult:
    lambda_p: float
    v_p: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class SymmetricSpectrum:
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, k] pairs with eigenvalues[k]


def is_irreducible(mat: np.ndarray) -> bool:
    """Strong connectivity of the directed graph of positive off-diagonal entries."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if n == 1:
        return True
    adj = mat > 0.0
    np.fill_diagonal(adj, False)

    def reaches_all(a: np.ndarray) -> bool:
        # breadth-first search from node 0, one boolean frontier per level
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = a[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


# (key, (eigenvalues, eigenvectors)) of the two most recently used matrices,
# least recently used first; the key is _eigh_key's
_EIGH_MEMO: list[tuple[tuple, tuple[np.ndarray, np.ndarray]]] = []


def _eigh_key(mat: np.ndarray) -> tuple:
    return mat.dtype.str, mat.shape, mat.tobytes()


def _symmetric_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(mat) as read-only arrays, computed only when mat is
    not one of the two most recently used matrices (a hit makes it the most
    recently used).

    Two entries let a ladder rung's R+M survive the one D - M~ factorization
    between its uses; none survives from the n = 128 rung to the next
    pass's n = 4. The key holds mat's dtype, shape and bytes, so a hit
    returns the very arrays eigh gave for those bits. A LinAlgError passes
    through and is not cached. np.linalg.eigh is looked up at each call.
    Threads sharing the memo can at worst evict the wrong entry: a hit
    always returns its own key's arrays.
    """
    key = _eigh_key(mat)
    for i, (known, result) in enumerate(_EIGH_MEMO):
        if known == key:
            _EIGH_MEMO.append(_EIGH_MEMO.pop(i))
            return result
    result = tuple(np.linalg.eigh(mat))
    for array in result:
        array.flags.writeable = False
    _EIGH_MEMO.append((key, result))
    del _EIGH_MEMO[:-2]
    return result


def _top_eigenvector(mat: np.ndarray) -> np.ndarray:
    """LAPACK's eigenvector of the eigenvalue with the largest real part:
    eigh's last column when mat is exactly symmetric, eig's otherwise."""
    try:
        if np.array_equal(mat, mat.T):
            return _symmetric_eigh(mat)[1][:, -1]
        values, vectors = np.linalg.eig(mat)
        return vectors[:, int(np.argmax(values.real))].real
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc


def perron_eigenpair(mat: np.ndarray) -> PerronResult:
    """Dominant eigenpair of a Metzler-type matrix.

    One step of the nonnegative shifted map mat + mu_bar I takes the LAPACK
    eigenvector to x, accepted when ||mat x - lambda_p x||_inf <= _PERRON_TOL
    max(1, ||mat||_inf), a backward-error bound (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 7); iterations is always 1. The
    shift mu_bar is the largest off-diagonal row sum, raised to the minimal
    shift making every entry nonnegative if it falls short.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix must be square")
    offdiag = mat - np.diag(np.diag(mat))
    if np.any(offdiag < 0.0):
        raise ValueError("off-diagonal entries must be nonnegative")
    if not is_irreducible(mat):
        raise NotIrreducible("positive off-diagonal pattern is not strongly connected")

    mu_bar = float(np.max(offdiag.sum(axis=1)))
    mu_bar = max(mu_bar, -float(np.min(np.diag(mat))), 0.0)
    shifted = mat + mu_bar * np.eye(n)

    top = _top_eigenvector(mat)
    x = top / np.linalg.norm(top)
    if not x.sum() > 0.0:
        x = -x
    z = shifted @ x
    with np.errstate(invalid="ignore"):  # z = 0 (n = 1, mat <= 0): nan fails the bound
        x = z / float(np.linalg.norm(z))
    lambda_p = float(x @ (shifted @ x)) - mu_bar
    residual = float(np.max(np.abs(mat @ x - lambda_p * x)))
    bound = _PERRON_TOL * max(1.0, float(np.max(np.abs(mat).sum(axis=1))))
    if not residual <= bound:
        raise NoConvergence(f"Perron residual {residual:g} exceeds {bound:g}")
    if np.min(x) <= 0.0:
        raise NoConvergence("dominant eigenvector is not strictly positive")
    return PerronResult(lambda_p=lambda_p, v_p=x, iterations=1, residual=residual)


def _is_symmetric(mat: np.ndarray) -> bool:
    """The one symmetry rule: |mat - mat^T| <= _SYM_RTOL max(1, max |mat|) entrywise."""
    scale = max(1.0, float(np.max(np.abs(mat), initial=0.0)))
    return float(np.max(np.abs(mat - mat.T), initial=0.0)) <= _SYM_RTOL * scale


def symmetric_spectrum(mat: np.ndarray) -> SymmetricSpectrum:
    """Full eigendecomposition of a symmetric matrix (_is_symmetric), eigenvalues descending."""
    s = np.asarray(mat, dtype=float)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError("matrix must be square")
    if not _is_symmetric(s):
        raise NotSymmetric("matrix is not symmetric within 1e-12 of its largest entry")
    try:
        eigenvalues, eigenvectors = _symmetric_eigh(0.5 * (s + s.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return SymmetricSpectrum(eigenvalues=eigenvalues[::-1].copy(),
                             eigenvectors=eigenvectors[:, ::-1].copy())


def require_nonsingular(mat: np.ndarray) -> None:
    """Raise SingularMatrix unless the smallest singular value of mat is at
    least 1e-14 times its largest absolute row sum.

    The SVD is the only judge of failure, but an exactly symmetric mat is
    first proved nonsingular from _symmetric_eigh's eigenvalues (a memo hit
    when a solver has factorized mat), and then no SVD runs; a failed eigh
    leaves the verdict to the SVD. For symmetric mat sigma_i = |lambda_i|
    (Golub & Van Loan, Matrix Computations, 8.6), and backward-stable
    eigenvalue and singular value kernels each miss them by
    O(n eps ||mat||_2) (Weyl), so min |lambda| >= _EIG_MARGIN ||mat||_inf,
    six orders above the threshold, leaves the SVD's sigma_min above it too.
    """
    scale = float(np.max(np.abs(mat).sum(axis=1), initial=0.0))
    eigenvalues = None
    if np.array_equal(mat, mat.T):
        try:
            eigenvalues = _symmetric_eigh(mat)[0]
        except np.linalg.LinAlgError:
            pass  # the SVD decides
    if (eigenvalues is not None
            and float(np.minimum.reduce(np.abs(eigenvalues))) >= _EIG_MARGIN * max(scale, 1e-300)):
        return
    try:
        sigma_min = float(np.linalg.svd(mat, compute_uv=False)[-1])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"singular value decomposition failed: {exc}") from exc
    if not sigma_min >= _PIVOT_REL * max(scale, 1e-300):
        raise SingularMatrix(f"smallest singular value {sigma_min:g} below threshold")


def solve_linear(mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve mat @ x = b by LU with partial pivoting, rejecting singular mat."""
    mat = np.asarray(mat, dtype=float)
    b = np.asarray(b, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape != (mat.shape[0],):
        raise ValueError("right-hand side has wrong length")
    require_nonsingular(mat)
    try:
        return np.linalg.solve(mat, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def _sup(x: np.ndarray) -> float:
    """||x||_inf, nan when x holds a nan; np.maximum.reduce skips np.max's wrapper."""
    return float(np.maximum.reduce(np.abs(x), axis=None))


def _guarded_solve(jac: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(jac, b), raising SingularMatrix when the solve shows jac singular.

    The solve itself is the test, so a Newton step costs no SVD.
    require_nonsingular accepts a matrix when sigma_min >= 1e-14 ||J||_inf.
    Since ||J^-1||_inf <= sqrt(n) ||J^-1||_2 = sqrt(n) / sigma_min, the
    solution of every matrix it accepts obeys
        ||J||_inf ||x||_inf <= ||J||_inf ||J^-1||_inf ||b||_inf <= sqrt(n) 1e14 ||b||_inf,
    so a growth above twice that bound (the 2 leaves room for rounding in x)
    proves J ill-conditioned, and every Jacobian that require_nonsingular
    accepts passes here (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 7).
    """
    try:
        x = np.linalg.solve(jac, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    # a non-finite x makes the growth inf or nan
    growth = _sup(np.abs(jac).sum(axis=1)) * _sup(x)
    bound = 2.0 * math.sqrt(len(b)) / _PIVOT_REL * _sup(b)
    if not (math.isfinite(growth) and growth <= bound):
        raise SingularMatrix(
            f"Newton step growth ||J|| ||x|| = {growth:g} exceeds {bound:g}; "
            "the Jacobian is numerically singular"
        )
    return x


def _symmetric_extremes(mat: np.ndarray) -> tuple[float, float]:
    """The smallest and largest eigenvalue of mat's symmetric part, by
    _symmetric_eigh; a symmetric mat's symmetric part is mat bit for bit,
    so a factorized one costs no second eigh."""
    mat = np.asarray(mat, dtype=float)
    eigenvalues = _symmetric_eigh(0.5 * (mat + mat.T))[0]
    return float(eigenvalues[0]), float(eigenvalues[-1])


def is_positive_definite(mat: np.ndarray) -> bool:
    """True when the symmetric part's smallest eigenvalue is strictly positive."""
    return _symmetric_extremes(mat)[0] > 0.0

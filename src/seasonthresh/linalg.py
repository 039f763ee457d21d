"""Dense small-matrix numerics: exponentials, spectral quantities, Perron pairs.

Everything here treats matrices as plain ``numpy`` arrays of shape (n, n) and
vectors as arrays of shape (n,). All functions are pure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, StructureError

_SERIES_MAX_TERMS = 64
# a relative gap 1 - |lambda_2| / rho at roundoff level: the dominant root is not isolated
_SEPARATION_FLOOR = 1e-12


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a finite float square matrix, raising InvalidInputError otherwise."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def as_vector(v, n: int | None = None) -> np.ndarray:
    m = np.asarray(v, dtype=float)
    if m.ndim != 1 or m.size < 1:
        raise InvalidInputError(f"expected a vector, got shape {m.shape}")
    if n is not None and m.size != n:
        raise InvalidInputError(f"expected a vector of length {n}, got {m.size}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("vector has non-finite entries")
    return m


def mat_exp(a, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of a truncated power series.

    The series is summed until the next term falls below ``tol`` scaled by the
    number of squarings, so the entrywise error stays below tol * e^{||A||}.
    Exact (up to roundoff) on diagonal and nilpotent inputs because the series
    then terminates.
    """
    m = as_square_matrix(a)
    if not (0.0 < tol <= 1e-6):
        raise InvalidInputError(f"tol must lie in (0, 1e-6], got {tol}")
    norm = np.linalg.norm(m, np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = m / (2.0 ** squarings)
    cutoff = tol / (2.0 ** (squarings + 1))
    n = m.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term @ b / k
        result = result + term
        t = np.abs(term).max()
        if t == 0.0 or t <= cutoff:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise InvalidInputError("matrix exponential overflowed double precision")
    return result


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    m = as_square_matrix(a)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def spectral_abscissa(a) -> float:
    """Largest eigenvalue real part."""
    m = as_square_matrix(a)
    return float(np.max(np.linalg.eigvals(m).real))


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue with right/left eigenvectors of a positive matrix.

    Normalization: ||v||_2 = 1 and <v, v_star> = 1.
    """

    rho: float
    v: np.ndarray
    v_star: np.ndarray

    def residuals(self, m) -> tuple[float, float]:
        m = as_square_matrix(m)
        right = float(np.linalg.norm(m @ self.v - self.rho * self.v))
        left = float(np.linalg.norm(m.T @ self.v_star - self.rho * self.v_star))
        return right, left


def perron_pair(m, tol: float = 1e-12) -> PerronPair:
    """Perron eigenvalue and eigenvectors by dense eigen-solves of M and M^T.

    Requires an entrywise positive matrix, or a nonnegative irreducible and
    primitive one. The solves run on M divided by its largest entry, so huge
    entries cannot overflow. ConvergenceError is raised when the two-sided
    residual there, relative to max(1, its Perron root), exceeds tol, or when
    no other eigenvalue modulus is strictly below rho.
    """
    a = as_square_matrix(m)
    if not (0.0 < tol <= 1e-6):
        raise InvalidInputError(f"tol must lie in (0, 1e-6], got {tol}")
    if np.any(a < 0.0):
        raise StructureError("matrix has negative entries")
    if np.any(a == 0.0) and not is_irreducible(a):
        raise StructureError("matrix is reducible; Perron pair is not unique")
    peak = float(a.max()) or 1.0  # a zero matrix meets the non-positive root check
    b = a / peak
    values, vectors = np.linalg.eig(b)
    moduli = np.sort(np.abs(values))
    separation = 1.0 - moduli[-2] / moduli[-1] if moduli.size > 1 else 1.0
    if separation <= _SEPARATION_FLOOR:
        raise ConvergenceError(
            f"dominant eigenvalue modulus is not separated (1 - |l2|/rho = {separation:.3e})",
            residual=separation,
        )
    v = _dominant_vector(values, vectors)
    w = _dominant_vector(*np.linalg.eig(b.T))
    # two-sided Rayleigh quotient: quadratically accurate in the residuals
    rho = float(w @ b @ v / (w @ v))
    if rho <= 0.0:
        raise StructureError(f"dominant eigenvalue is not positive: {rho * peak}")
    res = max(np.linalg.norm(b @ v - rho * v), np.linalg.norm(w @ b - rho * w)) / max(1.0, rho)
    if res > tol:
        raise ConvergenceError(f"Perron eigen-solve residual {res:.3e} exceeds {tol}", residual=res)
    return PerronPair(rho=rho * peak, v=v, v_star=w / float(v @ w))


def _dominant_vector(values, vectors) -> np.ndarray:
    """Positively oriented unit eigenvector of the largest-modulus eigenvalue,
    which is real and simple once its modulus is separated."""
    x = vectors[:, np.argmax(np.abs(values))].real
    return x / (np.linalg.norm(x) * np.sign(x.sum()))


def exp_product(blocks) -> np.ndarray:
    """Ordered product of exp(duration * matrix) over (matrix, duration) blocks.

    The first block is the rightmost factor; zero-duration blocks are skipped.
    """
    blocks = list(blocks)
    result = np.eye(np.shape(blocks[0][0])[0])
    for matrix, duration in blocks:
        if duration != 0.0:
            result = mat_exp(duration * matrix) @ result
    return result


def is_metzler(a) -> bool:
    """True iff every off-diagonal entry is >= 0."""
    m = as_square_matrix(a)
    off = m - np.diag(np.diag(m))
    return bool(np.all(off >= 0.0))


def is_irreducible(a) -> bool:
    """True iff the digraph of the nonzero pattern is strongly connected.

    Entries are compared to 0.0 exactly; this is a structure predicate, not a
    numerical one.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    if n == 1:
        return True
    adj = m != 0.0
    np.fill_diagonal(adj, False)
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())

"""Dense small-matrix numerics: exponentials, spectral quantities, Perron pairs.

Everything here treats matrices as plain ``numpy`` arrays of shape (n, n) and
vectors as arrays of shape (n,); ``mat_exp`` and ``perron_pair`` also take a
(G, n, n) stack. All functions are pure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, StructureError

_SERIES_MAX_TERMS = 64
# entries of a stack mat_exp takes at once: its stored series terms stay small
_STACK_ENTRIES = 1 << 14
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


def as_matrix_stack(a) -> np.ndarray:
    """Coerce a square matrix or a (G, n, n) stack of them to a finite float
    (G, n, n) stack (G = 1 for a matrix), raising InvalidInputError otherwise."""
    m = np.asarray(a, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or 0 in m.shape:
        raise InvalidInputError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix has non-finite entries")
    return m.reshape((-1,) + m.shape[-2:])


def mat_exp(a, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of a truncated power series.

    The series is summed until the next term falls below ``tol`` scaled by the
    number of squarings, so the entrywise error stays below tol * e^{||A||}.
    Exact (up to roundoff) on diagonal and nilpotent inputs because the series
    then terminates.

    ``a`` is one matrix or a (G, n, n) stack, exponentiated entry by entry:
    each matrix keeps its own squaring count and series length (a finished
    one takes no further terms or squarings), so it gets the same bits alone
    as in any stack.
    """
    m = as_matrix_stack(a)
    if not (0.0 < tol <= 1e-6):
        raise InvalidInputError(f"tol must lie in (0, 1e-6], got {tol}")
    chunk = max(1, _STACK_ENTRIES // m.shape[-1] ** 2)
    if len(m) > chunk:  # bounds the memory the stored series terms take
        parts = [mat_exp(m[i:i + chunk], tol) for i in range(0, len(m), chunk)]
        return np.concatenate(parts).reshape(np.shape(a))
    norm = np.abs(m).sum(axis=-1).max(axis=-1)
    top = float(norm.max())
    if top > 0.5:  # some matrix is scaled down by 2^squarings, then squared back
        squarings = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)).astype(int)
        b = np.ldexp(m, -squarings[:, None, None])
        cutoff = np.ldexp(tol, -1 - squarings)
        top, floor = float(np.ldexp(norm, -squarings).max()), float(cutoff.min())
    else:
        squarings, b, cutoff, floor = None, m, tol / 2.0, tol / 2.0
    # the terms b^k / k!: their entries are at most top^k / k!, top the
    # largest row-sum norm in b, so they run as far as that bound needs, then
    # on while rounding keeps a matrix's last term above its cutoff
    term, terms, bound = b, [b], top
    for k in range(2, _SERIES_MAX_TERMS + 1):
        if bound <= floor:
            series = np.concatenate(terms).reshape((k - 1,) + m.shape)
            small = np.abs(series).max(axis=(2, 3)) <= cutoff
            if small[-1].all():
                break
        term = term @ b / k
        terms.append(term)
        bound *= top / k
    else:
        series = np.concatenate(terms).reshape((len(terms),) + m.shape)
        small = np.abs(series).max(axis=(2, 3)) <= cutoff
        small[-1] = True  # a matrix with no small term takes them all
    # each matrix sums its terms in order up to the first one at or below its
    # cutoff: the running sums of one accumulate, started at I + b
    series[0] += np.eye(m.shape[-1])
    result = np.add.accumulate(series, axis=0)[small.argmax(axis=0), np.arange(len(m))]
    # unsquared, the sum stays below e^(1/2) entrywise: only squaring overflows
    if squarings is not None:
        least = int(squarings.min())
        with np.errstate(over="ignore", invalid="ignore"):
            for count in range(int(squarings.max())):
                if count < least:
                    result = result @ result
                else:
                    rows = squarings > count
                    result[rows] = result[rows] @ result[rows]
        if not np.isfinite(result).all():
            raise InvalidInputError("matrix exponential overflowed double precision")
    return result.reshape(np.shape(a))


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    m = as_square_matrix(a)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def spectral_radii(stack) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix in a (G, n, n) stack, from one
    eigen-solve; entry g has the bits of spectral_radius(stack[g])."""
    if not np.all(np.isfinite(stack)):
        raise InvalidInputError("matrix has non-finite entries")
    return np.abs(np.linalg.eigvals(stack)).max(axis=-1)


def spectral_abscissa(a) -> float:
    """Largest eigenvalue real part."""
    m = as_square_matrix(a)
    return float(np.max(np.linalg.eigvals(m).real))


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue with right/left eigenvectors of a positive matrix.

    Normalization: ||v||_2 = 1 and <v, v_star> = 1. For a (G, n, n) stack,
    rho has shape (G,) and v, v_star shape (G, n).
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

    ``m`` is one matrix or a (G, n, n) stack; a stack is judged matrix by
    matrix, the first failing one raising, and each matrix gets the bits of
    its own call. The eigen-solves of all G matrices and their transposes
    are one batched call.
    """
    a = as_matrix_stack(m)
    if not (0.0 < tol <= 1e-6):
        raise InvalidInputError(f"tol must lie in (0, 1e-6], got {tol}")
    if (a < 0.0).any():
        raise StructureError("matrix has negative entries")
    if (a == 0.0).any() and not all(map(is_irreducible, a)):
        raise StructureError("matrix is reducible; Perron pair is not unique")
    count = len(a)
    peak = a.max(axis=(1, 2))
    peak[peak == 0.0] = 1.0  # a zero matrix meets the non-positive root check
    b = a / peak[:, None, None]
    values, vectors = np.linalg.eig(np.concatenate([b, b.transpose(0, 2, 1)]))
    moduli = np.sort(np.abs(values[:count]), axis=-1)
    separation = 1.0 - moduli[:, -2] / moduli[:, -1] if moduli.shape[1] > 1 else np.ones(count)
    if (separation <= _SEPARATION_FLOOR).any():
        worst = separation[np.argmax(separation <= _SEPARATION_FLOOR)]
        raise ConvergenceError(
            f"dominant eigenvalue modulus is not separated (1 - |l2|/rho = {worst:.3e})",
            residual=float(worst),
        )
    x = _dominant_vectors(values, vectors)
    v, w = x[:count], x[count:]
    bv = _matvec(b, v)
    wb = _matvec(b.transpose(0, 2, 1), w)
    # two-sided Rayleigh quotient: quadratically accurate in the residuals
    rho = _dot(w, bv) / _dot(w, v)
    if (rho <= 0.0).any():
        g = np.argmax(rho <= 0.0)
        raise StructureError(f"dominant eigenvalue is not positive: {rho[g] * peak[g]}")
    right = bv - rho[:, None] * v
    left = wb - rho[:, None] * w
    res = np.sqrt(np.maximum(_dot(right, right), _dot(left, left))) / np.maximum(1.0, rho)
    if (res > tol).any():
        worst = res[np.argmax(res > tol)]
        raise ConvergenceError(
            f"Perron eigen-solve residual {worst:.3e} exceeds {tol}", residual=float(worst)
        )
    v_star = w / _dot(v, w)[:, None]
    if np.ndim(m) == 2:
        return PerronPair(rho=float(rho[0] * peak[0]), v=v[0], v_star=v_star[0])
    return PerronPair(rho=rho * peak, v=v, v_star=v_star)


def _dominant_vectors(values, vectors) -> np.ndarray:
    """Positively oriented unit eigenvector of each matrix's largest-modulus
    eigenvalue, which is real and simple once its modulus is separated."""
    x = vectors[np.arange(len(values)), :, np.argmax(np.abs(values), axis=-1)].real
    return x / (np.sqrt(_dot(x, x)) * np.sign(x.sum(axis=-1)))[:, None]


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a[g] @ x[g] for each g of a (G, n, n) stack and a (G, n) stack."""
    return (a @ x[..., None])[..., 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x[g], y[g]> for each g of two (G, n) stacks."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def exp_products(seasons, durations, table: dict) -> np.ndarray:
    """Ordered products of block exponentials, one for each row of durations.

    ``durations`` is a (G, L) array; block l of a row is
    exp(duration * seasons[l % len(seasons)]), the first block rightmost.
    ``table`` maps (season index, exact float duration) to its exponential;
    the blocks missing from it are exponentiated in one stacked mat_exp call
    and added, so calls over the same seasons that share a table compute
    each block once. Every factor has the bits of its own mat_exp call.
    """
    count = len(seasons)
    rows = [
        [(l % count, d) for l, d in enumerate(row)]
        for row in np.asarray(durations, dtype=float).tolist()
    ]
    missing = list(dict.fromkeys(key for row in rows for key in row if key not in table))
    if missing:
        table.update(zip(missing, mat_exp([d * seasons[s] for s, d in missing])))
    product = np.array([table[row[0]] for row in rows])
    for l in range(1, len(rows[0])):
        product = np.array([table[row[l]] for row in rows]) @ product
    return product


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

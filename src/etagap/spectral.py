"""Lowest eigenpairs of the pencil A u = lambda B u and their validation.

``solve_lowest`` picks the solver from the pencil.  Where the
coefficients are products over the axes (see ``assembly.axis_factors``),
A is a Kronecker sum of 1-D factors and B a Kronecker product of 1-D
masses, and both paths work in one basis: the Kronecker product V of the
1-D modes K_a V_a = M_a V_a D_a of each distinct 1-D pencil (fast
diagonalization, Lynch-Rice-Thomas 1964).  There A is the diagonal
D = sum_a D_a and B is G = G_0 (x) .. (x) G_{n-1}, G_a = V_a^T B_a V_a.
If B's masses are A's, G = I: the pencil is separable and its exact
discrete eigenpairs are sums and tensor products of 1-D ones.  Other
pencils take dense LAPACK when small and ARPACK shift-invert around zero
otherwise, with a seeded start vector.  Where the 1-D factors exist,
shift-invert runs standard-mode Lanczos on the symmetric
S = D^-1/2 G D^-1/2, A^-1 B in the mode basis, one small product per
axis: its largest eigenvalues are 1 / lambda, u = V D^-1/2 y maps its
eigenvectors back, and ARPACK needs no factor and no product with B (the
spectral transformation of Ericsson-Ruhe 1980).  Otherwise it runs
generalized mode 3 on (A, B) with one SuperLU factor of A in the
symmetric A + A^T minimum-degree ordering.  ``method="dense"`` forces
the dense path, which doubles as the oracle for small problems.  It
factors B = L L^T in LAPACK band storage
(a Q1 mass couples only grid neighbours, so B's half-bandwidth is one
grid row plus one in 2-D), whitens A in place to
C = L^-1 A L^-T with two banded triangular solves, and runs syevd on C:
three ndof x ndof arrays (C and the 2 ndof^2 workspace) where sygvd on
dense A and B held four.  The k kept eigenvectors of C are mapped back
with the upper band factor L^T, a third of the time of the transposed
solve with L.  ``meta["method"]`` names the path: "separable",
"fast_diagonalization", "superlu" or "dense".  Every path's vectors are
then put in C order, once and in ``solve_lowest``: scipy ravels the dense
operand of a sparse product, which copies a Fortran-ordered one.  The
separable read-off builds them in C order, so that step copies nothing
there; the Lanczos and dense paths give Fortran order and are copied
once.  They are B-normalised, and one identity pass gives their
residuals, Rayleigh quotients and Gram defect against the assembled
pair; the Gram is formed over its upper block triangle only.  Both walk
U by row chunks of ``_row_chunks``, each with its own rows of B U and
A U, so they hold U and a few chunks: at 512^2 with k = 300 a run took
1981 MiB with B U and A U at full size and takes 786 MiB, and 3.1-3.6 s
against 3.8-4.5 s.  Column sums carry from chunk to chunk in row order,
which keeps their bits (``_column_sums``); a single column is one chunk.
Eigenvectors are B-orthonormal, eigenvalues ascending with multiplicities
repeated.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .assembly import AxisFactors, OperatorPair, axis_factors
from .errors import ConvergenceFailure, DimensionMismatch, NotPositiveDefinite

DEFAULT_SOLVE_TOL = 1e-9
DEFAULT_ORTHO_TOL = 1e-8
MULTIPLET_REL_TOL = 1e-6
METHODS = ("auto", "dense")
GRAM_BLOCK = 256
CHUNK_ENTRIES = 2**16  # entries of U per row chunk in _normalise and _identities


@dataclass
class SpectrumResult:
    """Ascending eigenvalues with B-orthonormal vectors and diagnostics."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    meta: dict = field(default_factory=dict)
    # (pair, Rayleigh quotients, Gram defect) from solve_lowest's identity
    # pass, for validate_spectrum; init=False, so neither SpectrumResult(...)
    # nor dataclasses.replace carries it over to other vectors
    identities: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def k(self) -> int:
        return int(self.eigenvalues.size)


def multiplet_labels(lam: np.ndarray) -> np.ndarray:
    """Group label per ascending eigenvalue; equal labels form one multiplet.

    Neighbours within MULTIPLET_REL_TOL relative distance share a label.
    """
    prev, cur = lam[:-1], lam[1:]
    scale = np.maximum(np.maximum(np.abs(cur), np.abs(prev)), 1e-300)
    # a step between finite values of opposite sign near the float range
    # overflows to inf, which is rightly read as a new group
    with np.errstate(over="ignore"):
        same = np.abs(cur - prev) <= MULTIPLET_REL_TOL * scale
    labels = np.zeros(lam.size, dtype=int)
    labels[1:] = np.cumsum(~same)
    return labels


def _row_chunks(ndof: int, k: int) -> list[slice]:
    """Row slices of an ndof x k block, ``CHUNK_ENTRIES`` entries but at least ``GRAM_BLOCK`` rows each.

    A single column is one slice: numpy sums it pairwise, so a split
    would change its bits.  Wider blocks sum their rows one after another
    (see ``_column_sums``), which a split keeps.
    """
    rows = ndof if k == 1 else max(CHUNK_ENTRIES // k, GRAM_BLOCK)
    return [slice(lo, min(lo + rows, ndof)) for lo in range(0, ndof, rows)]


def _rows_times(mat: sp.csr_matrix, rows: slice, vecs: np.ndarray) -> np.ndarray:
    """(mat @ vecs)[rows], from those rows of the CSR ``mat`` on views of its arrays; the same bits."""
    if rows.stop - rows.start == mat.shape[0]:
        return mat @ vecs
    start, stop = mat.indptr[rows.start], mat.indptr[rows.stop]
    part = sp.csr_matrix(
        (mat.data[start:stop], mat.indices[start:stop], mat.indptr[rows.start : rows.stop + 1] - start),
        shape=(rows.stop - rows.start, mat.shape[1]),
    )
    return part @ vecs


def _column_sums(block: np.ndarray, carry: np.ndarray | None) -> np.ndarray:
    """``add.reduce(block, axis=0)`` continued from ``carry``, the column sums of the rows above.

    Over axis 0 of a C-ordered block of two or more columns, numpy's
    ``add.reduce`` and ``einsum`` both add the rows one after another, so
    adding the carry into the first row and summing on gives the bits of
    one pass over all rows; ``einsum`` takes a quarter of the time here.
    It overwrites that first row.
    """
    if carry is None:
        return np.add.reduce(block, axis=0)
    block[0] += carry
    return np.einsum("ij->j", block)


def _dot_columns(x: np.ndarray, y: np.ndarray, carry: np.ndarray | None) -> np.ndarray:
    """Column dot products of the C-ordered x and y continued from ``carry``: einsum on the first chunk."""
    if carry is None:
        return np.einsum("ij,ij->j", x, y)
    return _column_sums(x * y, carry)


def _identities(pair: OperatorPair, lam: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Residuals, Rayleigh quotients and Gram defect of every column u, from B U and A U by row chunks.

    The residual is ||A u - lambda B u|| / ||u||_B, the Rayleigh quotient
    u^T A u, and the Gram defect max |U^T B U - I|.  Each chunk of
    ``_row_chunks`` forms its rows of B U and A U and adds its part of the
    Gram, so the pass holds U, the Gram's upper block triangle and a few
    chunks.  The Gram is symmetric, so only that triangle is formed, in
    blocks of ``GRAM_BLOCK`` rows: for k <= GRAM_BLOCK one product
    ``U^T (B U)``, and for a full spectrum about 5/8 of its flops.  The
    squared B-norms, Rayleigh quotients and squared residuals carry from
    chunk to chunk in row order (``_column_sums``), so they take the same
    IEEE operations as one pass over all rows, and the residuals the same
    as ``np.linalg.norm(A @ vecs - bv * lam, axis=0)``: the same bits.  The
    Gram is summed chunk by chunk, which moves its defect at rounding
    level against one product over all rows.
    """
    vecs = np.ascontiguousarray(vecs)  # the carried sums need C order, and no product then copies it
    starts = range(0, lam.size, GRAM_BLOCK)
    grams = [np.zeros((min(GRAM_BLOCK, lam.size - a), lam.size - a)) for a in starts]
    bsq = rayleigh = rsq = None
    for rows in _row_chunks(*vecs.shape):
        u, bu = vecs[rows], _rows_times(pair.B, rows, vecs)
        for a, gram in zip(starts, grams):
            gram += u[:, a : a + GRAM_BLOCK].T @ bu[:, a:]
        bsq = _dot_columns(u, bu, bsq)
        r = _rows_times(pair.A, rows, vecs)
        rayleigh = _dot_columns(u, r, rayleigh)
        bu *= lam
        r -= bu
        np.square(r, out=r)
        rsq = _column_sums(r, rsq)
        del bu, r  # before the next chunk's, not after
    block_defects = []
    for gram in grams:
        gram.flat[:: gram.shape[1] + 1] -= 1.0
        block_defects.append(np.max(np.abs(gram, out=gram)))
    # np.max, not max, so that a nan block fails the check
    return np.sqrt(rsq) / np.sqrt(np.abs(bsq)), rayleigh, float(np.max(block_defects))


def _normalise(pair: OperatorPair, vecs: np.ndarray) -> np.ndarray:
    """Scale every column in place to unit B-norm with its largest-magnitude entry positive.

    The squared B-norms are summed over ``_row_chunks`` as in
    ``_identities``, each chunk with its own rows of B U, so they keep the
    bits of ``einsum("ij,ij->j", vecs, B @ vecs)``.  A second pass scales
    each chunk and takes its column max and min.  Over a C-ordered chunk
    of 2 to 32 columns numpy reduces slowly, row after short row, so such
    a chunk is copied, transposed, into one reused buffer and reduced
    along its rows.  Timed on the chunks ``_row_chunks`` makes (one Xeon
    core), the copy wins at every width up to 56 columns (2 columns: 43
    against 1550 us; 12: 75 against 335; 32: 110 against 130-190) and
    loses from 64 on (115 against 75 at 64, 147 against 39 at 256); 32
    keeps clear of that crossover.  One column is a contiguous row
    already and is reduced in place, not copied whole.  The largest |u_i| is
    max(u) or -min(u), so these give the sign; only where they tie does
    the first index of the largest |u_i| decide, as ``argmax(abs(u))``
    would, without an ndof x k temporary or a transposed argmax over every
    column.
    """
    chunks = _row_chunks(*vecs.shape)
    c_order = np.ascontiguousarray(vecs)  # vecs itself unless Fortran-ordered
    bsq = None
    for rows in chunks:
        bsq = _dot_columns(c_order[rows], _rows_times(pair.B, rows, c_order), bsq)
    del c_order
    norm = np.sqrt(bsq)
    top, low = np.full(norm.size, -np.inf), np.full(norm.size, np.inf)
    columns = np.empty((norm.size, chunks[0].stop)) if 1 < norm.size <= 32 else None
    for rows in chunks:
        block = vecs[rows]
        block /= norm
        by_column = block.T
        if columns is not None:  # a narrow chunk: numpy reduces the rows of a copy faster
            by_column = columns[:, : block.shape[0]]
            np.copyto(by_column, block.T)
        np.maximum(top, by_column.max(axis=1), out=top)
        np.minimum(low, by_column.min(axis=1), out=low)
    bottom = -low
    sign = np.where(bottom > top, -1.0, 1.0)
    tie = np.flatnonzero(bottom == top)
    sign[tie] = np.where(vecs[np.argmax(np.abs(vecs[:, tie]), axis=0), tie] < 0, -1.0, 1.0)
    vecs *= sign
    return vecs


def _along_axes(mats, x: np.ndarray) -> np.ndarray:
    """(mats[0] (x) .. (x) mats[n-1]) x for x in the C order of the grid, axis 0 slowest.

    Each step multiplies the leading axis and moves it to the back, so the
    result is a (N / m_{n-1}, m_{n-1}) array in the C order again; a
    trailing block axis of x ends up leading.
    """
    for m in mats:
        x = (m @ x.reshape(m.shape[1], -1)).T
    return x


def _product_pencil(factors: AxisFactors, k: int, seed: int):
    """Lowest k eigenpairs of the pencil with these factors, ascending, in its basis of 1-D modes, and its meta.

    With K_a V_a = M_a V_a D_a and V_a^T M_a V_a = I on each axis, the
    basis V = V_0 (x) .. (x) V_{n-1} takes A to the diagonal D = sum_a D_a
    and B to G = G_0 (x) .. (x) G_{n-1}, G_a = V_a^T B_a V_a.  Equal 1-D
    pencils (both axes of a square) are solved once.  A separable pencil
    (G = I) reads off the k smallest sums and their Kronecker vectors from
    the lowest min(k, ndof_a) modes of each axis: each lower mode gives a
    smaller sum, and a stable sort keeps the C order of the mode tuples
    within ties, so multiplets come out in a fixed order.  Otherwise
    Lanczos runs on the symmetric S = D^-1/2 G D^-1/2, one small product
    per axis and no factor: S y = y / lambda exactly when u = V D^-1/2 y
    solves A u = lambda B u.
    """
    separable = factors.separable
    pencils = list(zip(factors.stiffness, factors.mass))
    modes = []
    for a, (K, M) in enumerate(pencils):
        twin = next((b for b in range(a) if all(map(np.array_equal, pencils[b], (K, M)))), None)
        subset = [0, min(k, M.shape[0]) - 1] if separable else None
        modes.append(sla.eigh(K, M, subset_by_index=subset) if twin is None else modes[twin])
    lams, vecs = zip(*modes)
    sums = functools.reduce(np.add.outer, lams)
    if separable:
        order = np.argsort(sums, axis=None, kind="stable")[:k]
        out = np.ones((1, k))
        for vec, idx in zip(vecs, np.unravel_index(order, sums.shape)):
            # axis 0 slowest, the C order of the DOF numbering, in a C-ordered array,
            # so that solve_lowest's C-order step copies nothing
            out = np.multiply(out[:, None, :], vec[None, :, idx], order="C").reshape(-1, k)
        return sums.ravel()[order], out, {"method": "separable", "axis_ndof": factors.axis_ndof}
    scale = 1.0 / np.sqrt(sums.ravel())  # D^-1/2
    grams = [v.T @ B @ v for v, B in zip(vecs, factors.b_mass)]
    theta, y, diag = _lanczos(lambda x: scale * _along_axes(grams, scale * x).ravel(), scale.size, k, seed)
    lam, u = 1.0 / theta, _along_axes(vecs, y * scale[:, None]).reshape(k, -1).T
    order = np.argsort(lam)
    meta = {"method": "fast_diagonalization", "axis_ndof": factors.axis_ndof}
    return lam[order], u[:, order], {**meta, **diag}


def _band_cholesky(B: sp.spmatrix) -> tuple[int, dict]:
    """B's half-bandwidth kd and its Cholesky factor in both LAPACK band storages.

    dpbtrf on B's lower band gives L with B = L L^T; ``{"L": L, "U": U}``
    holds it and U = L^T, each (kd + 1, ndof).  M[i, j] sits at [i - j, j]
    of the lower storage and at [kd + i - j, j] of the upper one, so
    diagonal d of L^T is row d of L's storage shifted right by d.
    """
    lower = sp.tril(B, format="coo")
    below = lower.row - lower.col
    band = int(np.max(below))
    stored = np.zeros((band + 1, B.shape[0]), order="F")
    stored[below, lower.col] = lower.data
    factor, info = lapack.dpbtrf(stored, lower=1, overwrite_ab=1)
    if info != 0:
        raise NotPositiveDefinite(f"B is not positive definite (dpbtrf info {info})")
    upper = np.zeros_like(factor)
    for d in range(band + 1):
        upper[band - d, d:] = factor[d, : factor.shape[1] - d]
    return band, {"L": factor, "U": upper}


def _dense(pair: OperatorPair, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The lowest k eigenpairs of (A, B) from all of them, ascending, and the half-bandwidth kd of B.

    With B = L L^T from ``_band_cholesky``, C = L^-1 A L^-T is formed in A's
    dense Fortran-order array by two banded triangular solves (dtbtrs) with
    L and one transposed copy between them; syevd overwrites C with its
    eigenvectors v, and u = L^-T v for the k kept columns only, in place, as
    one solve with the upper factor U = L^T: the same result as the
    transposed solve with L to rounding, at about a third of its time.
    A nonzero LAPACK info raises.
    """
    band, factors = _band_cholesky(pair.B)

    def solve(x, uplo):
        x, info = lapack.dtbtrs(factors[uplo], x, uplo=uplo, overwrite_b=1)
        if info != 0:
            raise ConvergenceFailure(f"banded triangular solve failed (dtbtrs info {info})")
        return x

    c = solve(np.asfortranarray(solve(pair.A.toarray(order="F"), "L").T), "L")
    try:
        lam, vecs = sla.eigh(c, overwrite_a=True, driver="evd", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    return lam[:k], solve(vecs[:, :k], "U"), band


def _lanczos(apply, ndof: int, k: int, seed: int, shift_invert: OperatorPair | None = None):
    """ARPACK's k extreme eigenpairs of the operator x -> apply(x), and its diagnostics.

    Standard mode, largest algebraic eigenvalues, when ``shift_invert`` is
    None; otherwise generalized mode 3 around zero on that pencil, with
    ``apply`` as A^-1.  Either way from a seeded start vector and to
    machine precision.
    """
    applications = 0

    def counted(x):
        nonlocal applications
        applications += 1
        return apply(x)

    op = spla.LinearOperator((ndof, ndof), matvec=counted, dtype=float)
    # k + 8 Lanczos vectors beyond the wanted k, at least 20.  On the
    # 256^2 square with k = 12, ncv 25, 32 and 68 take 74, 72 and 69
    # operator applications: a larger basis only adds memory.
    ncv = min(ndof - 1, max(2 * k + 8, 20))
    v0 = np.random.default_rng(seed).standard_normal(ndof)
    common = dict(k=k, v0=v0, tol=0, ncv=ncv)
    try:
        if shift_invert is None:
            vals, vecs = spla.eigsh(op, which="LA", **common)
        else:
            vals, vecs = spla.eigsh(
                shift_invert.A, M=shift_invert.B, sigma=0.0, which="LM", OPinv=op, **common
            )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"eigensolver stalled: {exc}") from exc
    return vals, vecs, {"ncv": ncv, "op_applications": applications}


def solve_lowest(
    pair: OperatorPair,
    k: int,
    solve_tol: float = DEFAULT_SOLVE_TOL,
    method: str = "auto",
    seed: int = 0,
) -> SpectrumResult:
    """Lowest-k eigenpairs of (A, B), ascending, B-orthonormal.

    ``"auto"`` takes the product-pencil path for a separable pencil, dense
    LAPACK for at most 128 DOFs or k >= ndof - 1 (where ARPACK's basis of
    at most ndof - 1 vectors cannot hold k + 1), and otherwise shift-invert
    Lanczos, on the mode basis where the 1-D factors exist and with a
    SuperLU factor where they do not.  ``"dense"`` takes dense LAPACK.
    """
    ndof = pair.ndof
    if not 1 <= k <= ndof:
        raise DimensionMismatch(f"k={k} outside 1..{ndof}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    small = ndof <= 128 or k >= ndof - 1
    factors = axis_factors(pair) if method == "auto" else None
    product = factors is not None and (factors.separable or not small)
    dense = not product and (method == "dense" or small)
    if ndof > 2000 and (dense or k >= ndof - 1):
        # dense: three ndof x ndof arrays (C and syevd's 2 ndof^2 workspace),
        # 92 MiB and 2.5-2.9 s at 2000 DOFs; a full spectrum on any path:
        # the eigenvectors, then with them the Gram's upper triangle and row chunks in the identity pass
        raise DimensionMismatch(
            f"{'dense' if dense else 'separable'} solve of k={k} limited to 2000 DOFs (have {ndof}); "
            "lower k or refine less"
        )

    if dense:
        lam, vecs, band = _dense(pair, k)
        meta = {"method": "dense", "band": band}
    elif product:
        lam, vecs, meta = _product_pencil(factors, k, seed)
    else:
        # A is symmetric, so A.T is the CSC form of the CSR A without a copy;
        # an ordering of A + A^T keeps the fill of the one factor small.
        ordering = "MMD_AT_PLUS_A"
        lu = spla.splu(pair.A.T, permc_spec=ordering)
        lam, vecs, diag = _lanczos(lu.solve, ndof, k, seed, shift_invert=pair)
        order = np.argsort(lam)
        lam, vecs = lam[order], vecs[:, order]
        meta = {
            "method": "superlu",
            "ordering": ordering,
            "factor_nnz": int(lu.L.nnz + lu.U.nnz),
            **diag,
        }
        del lu
    del factors  # neither the 1-D matrices nor a factor is needed past the solve

    # C order once, so that no sparse-times-dense product (scipy ravels its
    # dense operand) copies the vectors: no copy on the separable path, one
    # of the other paths' Fortran-ordered vectors
    vecs = _normalise(pair, np.ascontiguousarray(vecs))
    res, rayleigh, gram_defect = _identities(pair, lam, vecs)
    if not np.all(res <= solve_tol):  # a nan residual fails too
        raise ConvergenceFailure(f"residuals up to {np.max(res):.3e} exceed tol {solve_tol:.1e}")
    meta.update(solve_tol=solve_tol, seed=seed, k=k, max_residual=float(np.max(res)))
    result = SpectrumResult(lam, vecs, res, meta)
    result.identities = (pair, rayleigh, gram_defect)
    return result


@dataclass
class ValidationReport:
    checks: dict

    @property
    def ok(self) -> bool:
        return all(v[0] for v in self.checks.values())


def validate_spectrum(
    result: SpectrumResult,
    pair: OperatorPair,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
) -> ValidationReport:
    """Identity checks: Rayleigh quotient, B-orthonormality, order, positivity.

    The Rayleigh quotients and the Gram defect come from solve_lowest's
    identity pass on this pair when the result holds it; a result built
    any other way is checked from its own vectors by the same pass.
    """
    lam = result.eigenvalues
    solve_tol = result.meta.get("solve_tol", DEFAULT_SOLVE_TOL)

    if result.identities is not None and result.identities[0] is pair:
        _, rayleigh, ortho_defect = result.identities
    else:
        _, rayleigh, ortho_defect = _identities(pair, lam, result.eigenvectors)
    ray_defect = float(np.max(np.abs(rayleigh - lam) / np.maximum(lam, 1e-300)))
    ray_ok = bool(np.all(np.abs(rayleigh - lam) <= 10.0 * solve_tol * lam))
    ortho_ok = ortho_defect <= ortho_tol

    ascending = bool(np.all(np.diff(lam) >= -1e-12 * np.abs(lam[:-1])))
    positive = bool(lam[0] > 0.0)
    res_ok = bool(np.all(result.residuals <= solve_tol))

    return ValidationReport(
        {
            "rayleigh_identity": (ray_ok, ray_defect),
            "b_orthonormal": (ortho_ok, ortho_defect),
            "ascending": (ascending, float(np.min(np.diff(lam))) if lam.size > 1 else 0.0),
            "lambda1_positive": (positive, float(lam[0])),
            "residuals": (res_ok, float(np.max(result.residuals))),
        }
    )


def parseval_defect(result: SpectrumResult, pair: OperatorPair, f) -> float:
    """(||f||_B^2 minus the captured energy sum of squared B-coefficients) / ||f||_B^2; 0.0 for f = 0."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != pair.ndof:
        raise DimensionMismatch(f"expected {pair.ndof} entries, got {f.shape[0]}")
    bf = pair.B @ f
    total = float(f @ bf)
    coeffs = result.eigenvectors.T @ bf
    return (total - float(np.sum(coeffs**2))) / total if total > 0.0 else 0.0


def export_spectrum_csv(result: SpectrumResult, path) -> None:
    groups = multiplet_labels(result.eigenvalues)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "lambda", "residual", "multiplicity_group"])
        for j in range(result.k):
            writer.writerow(
                [j + 1, repr(float(result.eigenvalues[j])), repr(float(result.residuals[j])), int(groups[j])]
            )

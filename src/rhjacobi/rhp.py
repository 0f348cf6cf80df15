"""Collocation solver for the 2x2 Riemann-Hilbert problem on a union of circles
and intervals.

Unknowns are Laurent coefficients on circles and Chebyshev-kernel coefficients
on bands; jump conditions are enforced at equispaced circle points and mapped
first-kind roots.  The matrix problem decouples row-wise, so one LU
factorization serves both rows.  A circle jump is unit lower-triangular, so
the circle densities are eliminated exactly: the second column vanishes and
the first is a discrete Fourier transform of band data.  Only the band
unknowns are factored.  Every solve reports an off-collocation residual, a
condition estimate of the band system and the largest circle-jump deviation;
a kernel basis that does not match the jump shows up in the residual.

A circle whose jump matrix differs from the identity by less than
IDENTITY_JUMP at all of its collocation nodes carries no density to double
precision.  The solver drops it for that solve, so at large n only the bands
are solved; the off-collocation residual still checks every circle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack as _lapack
from scipy.linalg import lu_factor, lu_solve

from .auxiliary import AuxData, HSystem, eval_h
from .cauchy import Side, cauchy_cheb_table
from .chebyshev import Interval, cheb_t_nodes
from .errors import GeometryError, ResidualWarning, SolverError, WeightError
from .green import GreenData, eval_g
from .weights import WeightSpec

_I2PI = 1j / (2.0 * np.pi)

# Largest |F - I| (its (1, 0) entry) at a circle's collocation nodes for which
# the 2x2 solver drops the circle.  On two bands, n = 50..85, this and 1e-3 of
# it both agree with the solve on every circle to 6e-15.
IDENTITY_JUMP = np.finfo(float).eps

# Off-collocation residual above which a solve warns.
RESIDUAL_WARN = 1e-6


@dataclass(frozen=True)
class Circle:
    """A deformation circle with its collocation resolution.

    pos_modes caps the nonnegative Laurent exponents.  The solved density's
    positive modes decay at the rate set by the exterior clearance while its
    negative modes decay at the (slower) rate set by the enclosed band, so a
    lopsided consecutive range spends the unknowns where the density lives.
    """

    center: float
    radius: float
    n_points: int
    pos_modes: int

    @property
    def exponents(self) -> np.ndarray:
        c = self.n_points
        p = min(self.pos_modes, c // 2)
        return np.arange(-(c - 1 - p), p + 1)

    def nodes(self) -> np.ndarray:
        k = np.arange(self.n_points)
        return self.center + self.radius * np.exp(2j * np.pi * k / self.n_points)

    def test_nodes(self) -> np.ndarray:
        k = np.arange(self.n_points) + 0.5
        return self.center + self.radius * np.exp(2j * np.pi * k / self.n_points)


@dataclass(frozen=True)
class BandPiece:
    """A band with its collocation resolution."""

    interval: Interval
    n_points: int

    def nodes(self) -> np.ndarray:
        return np.asarray(cheb_t_nodes(self.n_points, self.interval))

    def test_nodes(self) -> np.ndarray:
        i = np.arange(self.n_points) + 1.0
        t = np.cos(i * np.pi / (self.n_points + 1.0))
        return np.asarray(self.interval.from_unit(t))


@dataclass(frozen=True)
class ContourSet:
    circles: tuple
    bands: tuple

    @property
    def pieces(self) -> tuple:
        return self.circles + self.bands


def build_contours(spec: WeightSpec, ppi: int, circle_ratio: int) -> ContourSet:
    """Per-band circles plus the bands themselves as collocation pieces.

    Circle j is centered at the band midpoint with radius 5/8 of the band
    length (below that the deformed jumps misbehave).  GeometryError if two
    circles meet or a circle reaches another band.
    """
    if ppi < 2:
        raise GeometryError("need at least 2 collocation points per interval")
    bands = spec.bands
    centers = np.array([b.mid for b in bands])
    radii = np.array([0.625 * b.length for b in bands])

    # Strict pairwise disjointness and band clearance.
    for j in range(len(bands)):
        for k in range(j + 1, len(bands)):
            if abs(centers[k] - centers[j]) <= radii[j] + radii[k]:
                raise GeometryError(f"circles of radius {radii[j]:g} and {radii[k]:g} "
                                    f"around bands {j} and {k} are not disjoint")
        for k, other in enumerate(bands):
            if k != j and radii[j] >= min(abs(centers[j] - other.a), abs(centers[j] - other.b)):
                raise GeometryError(f"circle around band {j} touches band {k}")

    for j in range(len(bands)):
        _validate_h_on_disk(spec, j, centers[j], radii[j])

    circles = []
    for j in range(len(bands)):
        # Positive-mode budget from the nearest singularity of the continued
        # jump data outside the circle (other bands and zeros of h, where 1/w
        # blows up): coefficients decay like (r/dist)^k, so ~37/log(dist/r)
        # modes reach double precision.
        dist = np.inf
        for k, other in enumerate(bands):
            if k != j:
                dist = min(dist, max(other.a - centers[j], centers[j] - other.b))
        for zero in np.atleast_1d(spec.h[j].zero_locations()):
            dist = min(dist, abs(zero - centers[j]))
        npts = int(circle_ratio * ppi)
        if np.isfinite(dist) and dist > radii[j]:
            pos = int(np.ceil(37.0 / np.log(dist / radii[j])))
            pos = max(12, min(pos, npts // 2))
        else:
            pos = 12 if np.isinf(dist) else npts // 2
        circles.append(Circle(float(centers[j]), float(radii[j]), npts, pos))
    band_pieces = tuple(BandPiece(band, int(ppi)) for band in bands)
    return ContourSet(circles=tuple(circles), bands=band_pieces)


def _validate_h_on_disk(spec: WeightSpec, j: int, center: float, radius: float) -> None:
    """h_j must be finite and zero-free on the closed disk: 1/w enters the jump."""
    zeros = np.atleast_1d(spec.h[j].zero_locations())
    if np.any(np.abs(zeros - center) <= radius):
        raise WeightError(f"h on band {j} vanishes inside its deformation disk")
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    pts = [np.array([center + 0j])]
    for frac in (0.35, 0.7, 0.9, 1.0):
        pts.append(center + frac * radius * angles)
    vals = np.asarray(spec.h[j](np.concatenate(pts)), dtype=complex)
    if np.any(~np.isfinite(vals)):
        raise WeightError(f"h on band {j} is not finite on its deformation disk")


class JumpAssembly:
    """Jump matrices of the deformed problem, closed over (spec, green, aux, n).

    On the circles only the (2,1) entry differs from the identity: minus (upper
    half) or plus (lower half) of exp(2 h_n - 2n g)/w_j.  The two real-axis
    crossing points take the upper limit; the glued function is continuous
    there because the wrapped gap phases agree with n times the gap jumps
    modulo 2 pi i.  On the bands the jump is the constant-twisted off-diagonal
    involution.
    """

    def __init__(self, spec: WeightSpec, green: GreenData, hsys: HSystem, aux: AuxData):
        self.spec = spec
        self.green = green
        self.hsys = hsys
        self.aux = aux
        self.n = aux.n

    def circle_jump(self, j: int, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        v = np.empty(z.shape, dtype=complex)
        upper = z.imag > 0.0
        lower = z.imag < 0.0
        axis = ~(upper | lower)
        for mask, side, sgn in ((upper, Side.OFF, -1.0), (lower, Side.OFF, 1.0),
                                (axis, Side.PLUS, -1.0)):
            if not np.any(mask):
                continue
            zs = z[mask] if side is Side.OFF else z[mask].real
            expo = 2.0 * eval_h(self.spec, self.hsys, self.aux, zs, side) \
                - 2.0 * self.n * eval_g(self.green, zs, side)
            wv = self.spec.weight_value(j, zs, side)
            v[mask] = sgn * np.exp(expo) / wv
        out = np.zeros(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 1, 0] = v
        return out

    def band_jump(self, j: int, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        w = self.spec.weight_value(j, x, Side.PLUS)
        a_j = self.aux.A[j]
        out = np.zeros(x.shape + (2, 2), dtype=complex)
        out[..., 0, 1] = w * np.exp(-a_j)
        out[..., 1, 0] = -np.exp(a_j) / w
        return out


@dataclass
class ResidualReport:
    """Off-collocation jump defect over every piece; the LU-based condition
    estimate of the band system that remains after the circles are eliminated;
    and circle_deviation, the largest |F - I| (the (1, 0) entry) over the
    collocation nodes of every circle, a precision proxy (0 without circles)."""

    off_collocation: float
    rcond: float
    circle_deviation: float


@dataclass
class RHSolution:
    """Solved coefficients of the 2x2 unknown, piece by piece.

    contours lists the pieces that carry a density: every band, and the
    circles the solve kept.  A circle whose jump is the identity to within
    IDENTITY_JUMP is left out, so contours can hold fewer circles than the
    contour set the problem was posed on.
    """

    contours: ContourSet
    bases: tuple                  # per band: (column-1 kind, column-2 kind)
    circle_coeffs: list           # per circle of contours: array (2, 2, n_points), [row, col, k]
    band_coeffs: list             # per band: array (2, 2, n_points)
    residual: ResidualReport

    def eval(self, z) -> np.ndarray:
        """I + the Cauchy transform of the solved densities, off all contours."""
        out = self.correction(z)
        out[..., 0, 0] += 1.0
        out[..., 1, 1] += 1.0
        return out

    def correction(self, z) -> np.ndarray:
        """eval(z) - I, the Cauchy transform of the solved densities, off all
        contours.  At large |z| it keeps the digits of first_order(self)/z that
        subtracting I from eval(z) would cancel."""
        scalar = np.ndim(z) == 0
        out, _ = self._limits(np.atleast_1d(np.asarray(z, dtype=complex)))
        return out[0] if scalar else out

    def _limits(self, z: np.ndarray, own: int | None = None):
        """(plus, minus) Cauchy transforms of the densities at points z.

        Piece `own` of contours.pieces contributes its boundary limits from the
        two sides; every other piece, and all of them when own is None,
        contributes its off-contour value to both.
        """
        ncirc = len(self.contours.circles)
        kinds = ((None, None),) * ncirc + tuple(self.bases)
        coeffs = list(self.circle_coeffs) + list(self.band_coeffs)
        plus = np.zeros(z.shape + (2, 2), dtype=complex)
        minus = np.zeros_like(plus)
        for q, piece in enumerate(self.contours.pieces):
            for m, (tp, tm) in enumerate(_piece_tables(piece, kinds[q], z, q == own)):
                cp = tp @ coeffs[q][:, m, :].T
                plus[..., m] += cp
                minus[..., m] += cp if tm is tp else tm @ coeffs[q][:, m, :].T
        return plus, minus


def _circle_table(circ: Circle, z, side: Side | None) -> np.ndarray:
    """Laurent basis table at points z.

    side None: interior rows carry the nonnegative powers, exterior rows the
    negated negative powers.  side PLUS/MINUS: the one-sided boundary limits on
    the circle itself.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = (z - circ.center) / circ.radius
    exps = circ.exponents
    neg = exps < 0
    # Negative powers via 1/w so the unused overflowing half underflows to zero
    # instead of tripping complex inf/inf division.
    W = np.empty((len(w), len(exps)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        W[:, ~neg] = w[:, None] ** exps[None, ~neg]
        W[:, neg] = (1.0 / w)[:, None] ** (-exps[None, neg])
    if side is Side.PLUS:
        W[:, neg] = 0.0
        return W
    if side is Side.MINUS:
        W[:, ~neg] = 0.0
        return -W
    inside = np.abs(w) < 1.0
    W[np.ix_(inside, neg)] = 0.0
    W[np.ix_(~inside, ~neg)] = 0.0
    W[np.ix_(~inside, neg)] *= -1.0
    return W


def _piece_tables(piece, kinds, z, own: bool) -> list:
    """Per unknown column: the (plus, minus) kernel tables of piece at z.

    Off the piece (own False) both are the one off-contour table.  kinds holds
    the column bases of a band and is ignored for a circle.
    """
    if isinstance(piece, Circle):
        if own:
            pair = (_circle_table(piece, z, Side.PLUS), _circle_table(piece, z, Side.MINUS))
        else:
            pair = (_circle_table(piece, z, None),) * 2
        return [pair, pair]
    tables = {}
    for kind in set(kinds):
        if own:
            tables[kind] = tuple(cauchy_cheb_table(kind, piece.n_points, piece.interval, z, side)
                                 for side in (Side.PLUS, Side.MINUS))
        else:
            tables[kind] = (cauchy_cheb_table(kind, piece.n_points, piece.interval, z,
                                              Side.OFF),) * 2
    return [tables[kind] for kind in kinds]


def default_bases(spec: WeightSpec) -> tuple:
    """Column bases matching the endpoint conditions: the first column takes the
    kind with negated exponents, the second the band's own kind."""
    return tuple((kind.flipped, kind) for kind in spec.kinds)


def solve_matrix_rhp(spec: WeightSpec, contours: ContourSet, jumps: JumpAssembly) -> RHSolution:
    """Solve the block collocation system for both rows at once, in the kernel
    bases default_bases(spec).

    Every circle jump must be unit lower-triangular at the circle's nodes,
    F = [[1, 0], [v, 1]]; SolverError otherwise.  Circle j is dropped when
    max |v| is below IDENTITY_JUMP: it then carries no density to double
    precision.  On a kept circle the column-1 density vanishes and the
    column-0 density is an explicit function of the band unknowns, so only
    the bands are factored.  The returned solution's contours list the bands
    and the kept circles.  The off-collocation residual checks every piece of
    `contours`, the dropped circles included; above RESIDUAL_WARN it warns.
    """
    bases = default_bases(spec)
    circle_nodes = [c.nodes() for c in contours.circles]
    circle_F = [jumps.circle_jump(j, z) for j, z in enumerate(circle_nodes)]
    for j, Fj in enumerate(circle_F):
        if np.any(Fj[:, 0, 0] != 1.0) or np.any(Fj[:, 1, 1] != 1.0) or np.any(Fj[:, 0, 1] != 0.0):
            raise SolverError(f"jump on circle {j} is not unit lower-triangular at its nodes")
    deviation = [float(np.max(np.abs(Fj[:, 1, 0]))) for Fj in circle_F]
    kept = [j for j, dev in enumerate(deviation) if not dev < IDENTITY_JUMP]
    used = ContourSet(circles=tuple(contours.circles[j] for j in kept), bands=contours.bands)
    bands = used.bands
    nodes = [bp.nodes() for bp in bands]
    F = [jumps.band_jump(j, z) for j, z in enumerate(nodes)]
    counts = [bp.n_points for bp in bands]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    T = int(offsets[-1])

    # Fortran order lets LAPACK factor A in place instead of copying it.
    A = np.zeros((2 * T, 2 * T), dtype=complex, order="F")
    rhs = np.zeros((2 * T, 2), dtype=complex)
    eye = np.eye(2)

    for p in range(len(bands)):
        for q, piece in enumerate(bands):
            tabs = _piece_tables(piece, bases[q], nodes[p], p == q)
            for m in range(2):
                row = slice(m * T + offsets[p], m * T + offsets[p] + counts[p])
                for m2 in range(2):
                    col = slice(m2 * T + offsets[q], m2 * T + offsets[q] + counts[q])
                    tp, tm = tabs[m2]
                    block = -F[p][:, m2, m][:, None] * tm
                    if m2 == m:
                        block = block + tp
                    A[row, col] = block
        for m in range(2):
            row = slice(m * T + offsets[p], m * T + offsets[p] + counts[p])
            for r in range(2):
                rhs[row, r] = F[p][:, r, m] - eye[r, m]

    # On a kept circle c the column-1 rows read W u_c1 = 0 with W the Laurent
    # table at c's own nodes, so u_c1 = 0, and the column-0 rows give
    # u_c0 = W^-1 v (K u_B1 + [r == 1]) with K the bands' column-1 tables at
    # c's nodes.  W^-1 = W^H / n_c (consecutive exponents at the n_c-th roots
    # of unity) is a DFT.  Z_c maps (u_B1, 1) to u_c0; substituting u_c0 into
    # the band rows leaves a system in the band unknowns only.
    zb = np.concatenate(nodes)
    scale = [eye[0, m] - np.concatenate(F)[:, 0, m] for m in range(2)]
    Z = []
    for j in kept:
        circ = contours.circles[j]
        K = np.hstack([cauchy_cheb_table(kinds[1], bp.n_points, bp.interval, circle_nodes[j],
                                         Side.OFF) for bp, kinds in zip(bands, bases)]
                      + [np.ones((circ.n_points, 1))])
        Zc = np.fft.fft(circle_F[j][:, 1, 0, None] * K, axis=0)[circ.exponents % circ.n_points]
        Z.append(Zc / circ.n_points)
        coupling = _circle_table(circ, zb, None) @ Z[-1]
        for m in range(2):
            A[m * T:(m + 1) * T, T:] += scale[m][:, None] * coupling[:, :T]
            rhs[m * T:(m + 1) * T, 1] -= scale[m] * coupling[:, T]

    anorm = np.linalg.norm(A, 1)
    try:
        lu, piv = lu_factor(A, overwrite_a=True, check_finite=False)
    except Exception as exc:
        raise SolverError(f"collocation system factorization failed: {exc}") from exc
    if np.any(np.abs(np.diagonal(lu)) == 0.0):
        raise SolverError("collocation system is numerically singular")
    X = lu_solve((lu, piv), rhs, check_finite=False)
    rcond, _ = _lapack.zgecon(lu, anorm)

    # X rows: column m of the unknown on band q; X columns: the row r.
    band_coeffs = [np.stack([X[m * T + offsets[q]: m * T + offsets[q + 1]].T for m in range(2)],
                            axis=1) for q in range(len(bands))]
    circle_coeffs = []
    for Zc in Z:
        u0 = Zc[:, :T] @ X[T:]
        u0[:, 1] += Zc[:, T]
        coeff = np.zeros((2, 2, len(Zc)), dtype=complex)
        coeff[:, 0, :] = u0.T
        circle_coeffs.append(coeff)
    sol = RHSolution(contours=used, bases=bases, circle_coeffs=circle_coeffs,
                     band_coeffs=band_coeffs, residual=ResidualReport(np.nan, float(rcond), max(deviation, default=0.0)))
    sol.residual.off_collocation = _off_collocation_residual(sol, jumps, contours, kept)
    if sol.residual.off_collocation > RESIDUAL_WARN:
        warnings.warn(
            f"off-collocation jump residual {sol.residual.off_collocation:.2e} exceeds "
            f"{RESIDUAL_WARN:.1e} (n={jumps.n}); increase resolution or check the basis",
            ResidualWarning, stacklevel=2)
    return sol


def _off_collocation_residual(sol: RHSolution, jumps: JumpAssembly, contours: ContourSet,
                              kept: list) -> float:
    """Max jump defect at points interleaved with the collocation nodes.

    Every piece of contours is checked.  On a circle the solve dropped there is
    no density, so the two boundary values are both sol.eval and the defect is
    Phi (I - F).
    """
    ncirc = len(contours.circles)
    worst = 0.0
    for p, piece in enumerate(contours.pieces):
        zt = piece.test_nodes()
        if p < ncirc:
            Ft = jumps.circle_jump(p, zt)
            own = kept.index(p) if p in kept else None
        else:
            Ft = jumps.band_jump(p - ncirc, zt)
            own = len(kept) + p - ncirc
        plus, minus = sol._limits(zt, own)
        defect = plus - minus @ Ft + (np.eye(2) - Ft)
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def first_order(sol: RHSolution) -> np.ndarray:
    """The 1/z coefficient of the solved unknown at infinity.

    Exterior Laurent expansions contribute minus radius times the coefficient
    of the -1 power; band expansions contribute i/(2 pi) times the degree-0
    coefficient (only the degree-0 kernel carries a 1/z term).
    """
    out = np.zeros((2, 2), dtype=complex)
    for circ, coeff in zip(sol.contours.circles, sol.circle_coeffs):
        idx = int(np.nonzero(circ.exponents == -1)[0][0])
        out -= circ.radius * coeff[:, :, idx]
    for coeff in sol.band_coeffs:
        out += _I2PI * coeff[:, :, 0]
    return out


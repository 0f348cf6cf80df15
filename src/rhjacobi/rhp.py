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

The band system is real.  For a real weight the problem is Schwarz-symmetric,
Y(conj z) = conj Y(z) (Deift, Orthogonal Polynomials and Random Matrices: A
Riemann-Hilbert Approach, 1999), and so is its discretization: on a band the
jump is [[0, f], [-1/f, 0]] with f real, each column-1 equation is
conj(the column-0 equation at the same node) / F_10, and the band
coefficients are fixed phases times real numbers.  Row 0's band unknowns are
D y_0 and row 1's i D y_1, with D = diag(i I_T, I_T) and y_0, y_1 real (T band
unknowns per column).  Column 0's T complex equations, split into real and
imaginary parts, are one real 2T x 2T system for both rows, with right-hand
sides -1 (row 0) and -i (F_10 - c) (row 1), c the identity's share of the
circle coupling; the column-1 equations are never assembled.  So a band jump
is given as its two entries, the operator's band-node tables are this
system's (left, right), and a circle's solution is its column-0 density.

Every circle computation runs on the upper half-circle only (Circle.upper):
the nodes at angles 0..pi and the test nodes strictly above the real axis.
Each lower node is the exact conjugate of its mirror node, and there the
circle jump's entry v, the column-1 kernels K and the column-0 data
v (K u_B1 + [r == 1]) of row 0 (row 1) are -conj, -conj and conj (-conj) of
their mirror values, so the lower half is never formed.  The solver reads a
circle's jump as v at the upper points (JumpAssembly.circle_entry): a circle
jump that is not unit lower-triangular, or not Schwarz-symmetric, cannot be
expressed.  The off-collocation residual takes the complex solution, both
columns, at every band test node and at every upper circle test node: it
checks the column-1 equations, and a band jump not of the form above shows
there.

A circle whose jump matrix differs from the identity by less than
IDENTITY_JUMP at all of its collocation nodes carries no density to double
precision.  The solver drops it for that solve, so at large n only the bands
are solved; the off-collocation residual still checks every circle.

What is computed how often, and who owns it:
- per circle: its upper points (Circle.upper), computed once.
- per geometry, the ContourSet: its circles, bands and kernel bases (the
  default_bases of the weight it was built for), and its one
  CollocationOperator, the band kernel tables at every band node and test
  node and, for column 1, every upper circle point, in one pass over those
  points: per band and column one table off the band and one from above at
  its own points, whose reflection (-conj) is the table from below; at the
  band nodes it keeps the band system's (left, right).  It is built by the
  first solve on the contour set and kept for every later one.  g and the h
  basis depend on the bands only too: JumpValues reads them from the
  GreenData at every upper circle point at once, one call per side, each one
  pass over every band and gap at once, when the first solve asks for a
  circle jump.
- per kept circle, in the operator: its coupling operands at the band nodes
  (G over the upper half-circle) and its Laurent table at the band test
  nodes, built by the first solve that keeps it.
- per jump spec, in JumpValues: the weight values at the upper circle points,
  in one call per circle and side.
- per block of indices, in one solve_matrix_rhp call, one NumPy call per
  step over all its indices: the circle jump entries (one exponential per
  circle over indices x upper points, taken only where it does not underflow
  to 0), the stacked real band systems (the operator's left half, and its
  right half scaled by -F_10) and their 1-norms, per circle one product of
  its kernels with the band unknowns of every index, the kept circles'
  coefficients (two Hermitian FFTs each) and the residual (one stacked
  inverse FFT per circle, stacked products on the bands); per index, one
  coupling product per kept circle, one lu_factor and lu_solve (LAPACK
  dgetrf and dgetrs) and one dgecon call, and its RHSolution.  Each step
  acts on every index alone, so an index's solution does not depend on its
  block, and an index whose solve fails fails alone.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import lapack as _lapack

from .auxiliary import combine_h, h_basis, h_weights
from .cauchy import Side, cauchy_cheb_table
from .chebyshev import Interval, cheb_t_nodes
from .errors import DomainError, GeometryError, ResidualWarning, SolverError, WeightError
from .green import GreenData, eval_g
from .weights import WeightSpec

_I2PI = 1j / (2.0 * np.pi)

# Largest |F - I| (its (1, 0) entry) at a circle's collocation nodes for which
# the 2x2 solver drops the circle.  On two bands, n = 50..85, this and 1e-3 of
# it both agree with the solve on every circle to 6e-15.
IDENTITY_JUMP = np.finfo(float).eps

# Collocation points on each circle per point on a band.
CIRCLE_POINTS_PER_PPI = 10

# Smallest |power| a Laurent table keeps.  At points whose distance ratio to
# the circle is rho, the powers dropped below it add at most
# LAURENT_CUT / (1 - rho) times the largest coefficient, far below the
# rounding of the kept terms.
LAURENT_CUT = np.finfo(float).eps / 100

# Real part of an exponent below which exp(exponent) is exactly 0 in double
# precision (exp(-745.2) already rounds to 0).
UNDERFLOW_EXPONENT = -746.0

# Off-collocation residual above which a solve warns.
RESIDUAL_WARN = 1e-6

# The stages of one block solve that BlockSolution.stages times, in this order.
STAGES = ("tables", "jumps", "assembly", "lu", "residual")

# Per column block of the band unknowns (column 0, column 1) and row r of the
# unknown, the fixed phase of the real solution: the band coefficients are
# these times y (module docstring).
_PHASES = np.array([[1j, -1.0], [1.0, 1j]])


@dataclass(frozen=True)
class Circle:
    """A deformation circle with its collocation resolution, n_points even
    (DomainError otherwise).

    pos_modes caps the nonnegative Laurent exponents.  The solved density's
    positive modes decay at the rate set by the exterior clearance while its
    negative modes decay at the (slower) rate set by the enclosed band, so a
    lopsided consecutive range spends the unknowns where the density lives.
    A solve computes at the upper points only (upper; module docstring).
    """

    center: float
    radius: float
    n_points: int
    pos_modes: int

    def __post_init__(self):
        if self.n_points % 2:
            raise DomainError(f"a circle needs an even number of nodes, got {self.n_points}")

    @cached_property
    def upper(self) -> np.ndarray:
        """The points of the upper half-circle where a solve takes the jump,
        computed once and read-only: the nodes k = 0..n_points / 2, at angles
        0..pi, then the test nodes strictly above the real axis,
        k = 0..n_points / 2 - 1."""
        half = self.n_points // 2
        out = np.concatenate([self.nodes()[:half + 1], self.test_nodes()[:half]])
        out.flags.writeable = False
        return out

    @property
    def exponents(self) -> np.ndarray:
        c = self.n_points
        p = min(self.pos_modes, c // 2)
        return np.arange(-(c - 1 - p), p + 1)

    def nodes(self) -> np.ndarray:
        """The equispaced collocation nodes, node k at angle 2 pi k / n_points.
        A node below the real axis is the exact conjugate of its mirror
        image, nodes()[n_points - k] == conj(nodes()[k]); the nodes at
        k = 0 and k = n_points / 2 are taken as computed."""
        return self._turned(0.0)

    def test_nodes(self) -> np.ndarray:
        """The nodes turned by half a step, test node k at angle
        2 pi (k + 1/2) / n_points; those below the real axis are exact
        conjugates, test_nodes()[n_points - 1 - k] == conj(test_nodes()[k])."""
        return self._turned(0.5)

    def _turned(self, shift: float) -> np.ndarray:
        t = np.arange(self.n_points) + shift
        unit = np.exp(2j * np.pi * t / self.n_points)
        lower = np.flatnonzero(2.0 * t > self.n_points)
        # t's mirror image is n_points - t, at index n_points - 2 shift - k.
        unit[lower] = np.conj(unit[(self.n_points - 2 * shift - lower).astype(int)])
        return self.center + self.radius * unit


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
    """The circles and bands of one geometry, the kernel bases of the weight
    it was built for, and its one collocation operator.

    Everything here is per geometry.  operator is built on first use and
    kept, so every solve on this contour set shares it, whatever its jump
    spec and n; solve_matrix_rhp refuses a weight of other kinds.
    """

    circles: tuple
    bands: tuple
    bases: tuple                  # per band: (column-0 kind, column-1 kind)

    @cached_property
    def operator(self) -> CollocationOperator:
        return CollocationOperator(self)


class CollocationOperator:
    """The kernel tables of one contour set in its band bases.

    Nothing here depends on n or on the jump data.  Column m of the unknown is
    expanded on every band q in the kernel bases[q][m]:
    - test_plus[m], test_minus[m]: the column-m kernels of all bands side by
      side, at all band test nodes.  A band's rows at its own test nodes hold
      its boundary values from above and below; every other entry is the
      off-contour value, the same in both.
    - left, right: column 0's band equations in the real unknowns y (module
      docstring), each (2T, T), real parts above imaginary parts: with P, M
      the same tables at the band nodes, column 0's from above and column 1's
      from below, left = [-Im P; Re P] (the columns of i P) and right =
      [Re M; Im M], which an index scales by -F_10.
    - circle_points[j]: circle j's upper half (Circle.upper), its nodes at
      angles 0..pi, then its test nodes above the real axis.  The kernels at
      a lower point are -conj of those at its mirror point and are never
      formed (module docstring).
    - circle_K[j]: the column-1 kernels at circle_points[j], then a column of
      ones for the identity's share of the jump.
    The kernel tables come from one pass over the point cloud of column m:
    every band's nodes and test nodes, one slice per band, and for column 1
    every circle's upper points.  Per band q and column m there are at most two
    cauchy_cheb_table calls, off the band at every other point and from above
    at its own, whose rows are copied into the tables above; from below, its
    own rows are -conj of those from above, bit for bit (cauchy_cheb_table).
    Circle j's tables (circle_tables) are built the first time a solve keeps
    circle j, and kept.  The tables at one point set off the contours
    (kernels_at, circle_at) are kept for the last point set only.
    """

    def __init__(self, contours: ContourSet):
        bands = contours.bands
        self.bands = bands
        self.bases = bases = contours.bases
        self.circles = contours.circles
        self.band_nodes = [bp.nodes() for bp in bands]
        self.band_test_nodes = [bp.test_nodes() for bp in bands]
        self.circle_points = [c.upper for c in contours.circles]
        ends = np.cumsum([bp.n_points for bp in bands]).tolist()
        self.spans = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
        T = ends[-1]
        # At the band nodes, column 0's table from above and column 1's from
        # below, the only ones the real band system reads.
        at_nodes = np.empty((2, T, T), dtype=complex)
        self.test_plus, self.test_minus = np.empty((2, 2, T, T), dtype=complex)
        self.circle_K = [np.ones((len(z), T + 1), dtype=complex) for z in self.circle_points]
        for m in range(2):
            # Column m's cloud as (points, the row blocks they fill, each with
            # whether it is from below); band q's points are pieces 2q and
            # 2q + 1.
            cloud = []
            for p, span in enumerate(self.spans):
                cloud.append((self.band_nodes[p], ((at_nodes[m][span], m == 1),)))
                cloud.append((self.band_test_nodes[p], ((self.test_plus[m][span], False),
                                                        (self.test_minus[m][span], True))))
            if m == 1:
                cloud += [(z, ((K[:, :T], False),))
                          for z, K in zip(self.circle_points, self.circle_K)]
            for q, (bp, cols) in enumerate(zip(bands, self.spans)):
                own, off = cloud[2 * q:2 * q + 2], cloud[:2 * q] + cloud[2 * q + 2:]
                for side, pieces in ((Side.PLUS, own), (Side.OFF, off)):
                    if not pieces:
                        continue
                    rows = cauchy_cheb_table(bases[q][m], bp.n_points, bp.interval,
                                             np.concatenate([z for z, _ in pieces]), side)
                    # tables[below]: from below its own points, a band's table
                    # is -conj of the one from above (cauchy_cheb_table).
                    tables = (rows, -np.conj(rows) if side is Side.PLUS else rows)
                    start = 0
                    for z, blocks in pieces:
                        for block, below in blocks:
                            block[:, cols] = tables[below][start:start + len(z)]
                        start += len(z)
        plus, minus = at_nodes
        self.left = np.asfortranarray(np.vstack([-plus.imag, plus.real]))
        self.right = np.asfortranarray(np.vstack([minus.real, minus.imag]))
        self._circle_tables: dict = {}
        self._last_points: tuple = (None, [], {})

    def circle_tables(self, j: int) -> tuple:
        """(G, K, span, table) for circle j, built on first request and kept.

        G maps data at circle j's nodes to the Cauchy transform at all band
        nodes of the density that interpolates it: _circle_table there times
        W^-1 = W^H / n_j, W the Laurent table at the nodes, as a DFT.  Only its
        columns at the upper nodes k = 0..n_j / 2 are kept, each doubled but
        the two axis nodes' (k = 0 and n_j / 2), as the real [Re G, -Im G].
        K is circle_K[j] at those nodes with -i for its column of ones: the
        operands of coupling.  (span, table) is _circle_table at all band
        test nodes."""
        if j not in self._circle_tables:
            circ = self.circles[j]
            n = circ.n_points
            span, table = _circle_table(circ, np.concatenate(self.band_nodes))
            spectrum = np.zeros((len(table), n), dtype=complex)
            spectrum[:, circ.exponents[span] % n] = table
            G = np.fft.fft(spectrum, axis=1)[:, :n // 2 + 1] / n
            G[:, 1:-1] *= 2.0
            K = self.circle_K[j][:n // 2 + 1].copy()
            K[:, -1] = -1j
            self._circle_tables[j] = (np.hstack([G.real, -G.imag]), K,
                                      *_circle_table(circ, np.concatenate(self.band_test_nodes)))
        return self._circle_tables[j]

    def coupling(self, j: int, v: np.ndarray) -> np.ndarray:
        """The coupling of circle j into column 0's band equations for one
        index, v its jump entry F_10 at circle j's upper points (of which
        the upper nodes, its first n_j / 2 + 1 entries, are read): the real
        (T, T + 1) matrix whose columns :T are G diag(v) K, K the bands'
        column-1 tables at the nodes (circle_K), and whose column T holds
        Im(G v), the identity's share.

        By the Schwarz symmetry G, v and K at a node below the real axis are
        conj G, -conj v and -conj K at its mirror image, so G diag(v) K is
        twice the real part of its sum over the nodes above the axis, plus
        the two axis nodes, and G v is i times the imaginary part of that
        sum.  It is made from the upper nodes alone as Re(G diag(v) K) with
        circle_tables' G and K (whose -i turns Re into Im for the column of
        ones), one real product [Re G, -Im G] @ [Re(v K); Im(v K)]."""
        G, K, _, _ = self.circle_tables(j)
        vK = v[:len(K), None] * K
        return G @ np.concatenate([vK.real, vK.imag])

    def kernels_at(self, z: np.ndarray) -> list:
        """Per column m, the column-m kernels of all bands side by side at
        points z off the contours."""
        return self._at(z)[1]

    def circle_at(self, circ: Circle, z: np.ndarray) -> tuple:
        """_circle_table(circ, z), kept with kernels_at's tables."""
        tables = self._at(z)[2]
        if circ not in tables:
            tables[circ] = _circle_table(circ, z)
        return tables[circ]

    def _at(self, z: np.ndarray) -> tuple:
        """The tables at points z, rebuilt only when z differs from the last
        point set asked for: repeated evaluation at one point, as in the
        terms of recip_approx, builds them once, and the memo cannot grow."""
        key = z.tobytes()
        if self._last_points[0] != key:
            kernels = [np.hstack([cauchy_cheb_table(self.bases[q][m], bp.n_points, bp.interval, z)
                                  for q, bp in enumerate(self.bands)]) for m in range(2)]
            self._last_points = (key, kernels, {})
        return self._last_points


def build_contours(spec: WeightSpec, ppi: int) -> ContourSet:
    """Per-band circles plus the bands themselves as collocation pieces: ppi
    points on each band, CIRCLE_POINTS_PER_PPI * ppi on each circle.

    Circle j is centered at the band midpoint with radius 5/8 of the band
    length (below that the deformed jumps misbehave).  The contour set keeps
    default_bases(spec), the kernel bases of its operator.  GeometryError if two
    circles meet or a circle reaches another band, WeightError if h_j has a
    zero or a pole on circle j's closed disk.  DomainError unless ppi is an
    integer >= 2.
    """
    if isinstance(ppi, bool) or not isinstance(ppi, (int, np.integer)) or ppi < 2:
        raise DomainError(f"ppi must be an integer >= 2, got {ppi!r}")
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
        # modes reach double precision, and 12 when nothing bounds the circle
        # (dist = inf).  The checks above keep dist > r.
        dist = np.inf
        for k, other in enumerate(bands):
            if k != j:
                dist = min(dist, max(other.a - centers[j], centers[j] - other.b))
        for zero in np.atleast_1d(spec.h[j].zero_locations()):
            dist = min(dist, abs(zero - centers[j]))
        npts = int(CIRCLE_POINTS_PER_PPI * ppi)
        pos = max(12, min(int(np.ceil(37.0 / np.log(dist / radii[j]))), npts // 2))
        circles.append(Circle(float(centers[j]), float(radii[j]), npts, pos))
    band_pieces = tuple(BandPiece(band, int(ppi)) for band in bands)
    return ContourSet(circles=tuple(circles), bands=band_pieces, bases=default_bases(spec))


def _validate_h_on_disk(spec: WeightSpec, j: int, center: float, radius: float) -> None:
    """h_j must be analytic and zero-free on the closed disk: w and 1/w enter
    the jump."""
    h = spec.h[j]
    for what, points in (("vanishes", h.zero_locations()), ("has a pole", h.pole_locations())):
        if np.any(np.abs(np.atleast_1d(points) - center) <= radius):
            raise WeightError(f"h on band {j} {what} inside its deformation disk")


def _fill(memo: dict, point_sets: dict, evaluate) -> None:
    """memo[key] = evaluate(point_sets[key], side) for every key memo lacks, in
    one call per side over all of those point sets: off the real axis with
    Side.OFF, on it from above (Side.PLUS at the real points), as the jumps
    take them.  The last axis of evaluate's values runs over the points."""
    new = {key: z for key, z in point_sets.items() if key not in memo}
    if not new:
        return
    z = np.concatenate(list(new.values()))
    axis = z.imag == 0.0
    values = None
    for mask, side, points in ((~axis, Side.OFF, z[~axis]), (axis, Side.PLUS, z[axis].real)):
        if len(points):
            part = evaluate(points, side)
            if values is None:
                values = np.empty(part.shape[:-1] + z.shape, dtype=complex)
            values[..., mask] = part
    start = 0
    for key, points in new.items():
        memo[key] = values[..., start:start + len(points)]
        start += len(points)


class JumpValues:
    """The n-independent factors of the jumps of spec on one contour set.

    The circle entry's sign, g and the h basis (auxiliary.h_basis), all read
    from the bands' GreenData green, depend on the bands only, so every jump
    spec on them shares them (for_spec).  The weight values belong to the
    jump spec.  Both are memos keyed by the points' bytes, each point taken as
    the jumps take it: off the real axis with Side.OFF, on it from above.  The
    first circle request evaluates them at every circle's upper points
    (Circle.upper), where the solver reads them: g and the h basis in one call
    per side, each circle's weight in one weight_value call per side, and
    every later index reads them.  A request at other points fills that point
    set alone; as each point's value depends on that point only, it is the
    value the whole cloud gives.  point serves one point off the circles,
    such as cauchy_pn's, and keeps the last point only.
    """

    def __init__(self, spec: WeightSpec, green: GreenData, contours: ContourSet):
        self.spec = spec
        self.green = green
        self.contours = contours
        self._geometry: dict = {}
        self._weights: dict = {}
        self._cold = True
        self._point: tuple = (None,)

    def for_spec(self, spec: WeightSpec) -> JumpValues:
        """These values for a weight on the same bands: the g and h-basis memo
        is shared, the weight memo starts empty."""
        out = JumpValues(spec, self.green, self.contours)
        out._geometry = self._geometry
        return out

    def _geometry_at(self, z: np.ndarray, side: Side) -> np.ndarray:
        """circle_jump's sign, R, the h basis and g at points z, stacked."""
        R, transforms = h_basis(self.green, z, side)
        return np.vstack([np.where(np.imag(z) < 0.0, 1.0, -1.0), R, transforms,
                          eval_g(self.green, z, side)])

    def circle(self, j: int, z: np.ndarray) -> tuple:
        """(sign, R, transforms, g, weight) at points z of circle j; R and
        transforms as h_basis gives them."""
        point_sets = [(j, z)]
        if self._cold:
            self._cold = False
            point_sets = [*enumerate(c.upper for c in self.contours.circles), (j, z)]
        _fill(self._geometry, {w.tobytes(): w for _, w in point_sets}, self._geometry_at)
        for i in dict.fromkeys(i for i, _ in point_sets):
            _fill(self._weights, {("circle", i, w.tobytes()): w for k, w in point_sets if k == i},
                  partial(self.spec.weight_value, i))
        values = self._geometry[z.tobytes()]
        weight = self._weights[("circle", j, z.tobytes())]
        return values[0], values[1], values[2:-1], values[-1], weight

    def band_weight(self, j: int, x: np.ndarray) -> np.ndarray:
        """The band-j weight's upper boundary value at real points x."""
        key = ("band", j, x.tobytes())
        _fill(self._weights, {key: x}, partial(self.spec.weight_value, j))
        return self._weights[key]

    def point(self, z: complex) -> tuple:
        """(R, transforms, g) at the single point z, each of length 1 in its
        last axis; rebuilt only when z differs from the last point asked for."""
        if self._point[0] != z:
            memo: dict = {}
            _fill(memo, {z: np.array([z], dtype=complex)}, self._geometry_at)
            self._point = (z, memo[z])
        values = self._point[1]
        return values[1], values[2:-1], values[-1]


class JumpAssembly:
    """Jump matrices of the deformed problem for a block of indices ns.

    On the circles only the (2,1) entry v differs from the identity: minus
    (upper half) or plus (lower half) of exp(2 h_n - 2n g)/w_j.  circle_entry
    gives v, shape (len(ns), len(points)), and circle_jump the 2x2 view
    [[1, 0], [v, 1]] built from it.  The solver reads circle_entry at the
    upper points of each circle only (module docstring).  The two real-axis
    crossing points take the upper limit; the glued function is continuous
    there because the wrapped gap phases agree with n times the gap jumps
    modulo 2 pi i.  On band j the jump is the constant-twisted off-diagonal
    involution [[0, F_01], [F_10, 0]]; band_jump gives its two entries.

    The n-independent factors come from `values`, which a SolveContext shares
    between all its indices.  auxes is a sequence of AuxData, one per index
    of the block, from which the 2g+1 weights of the h basis and e^(+-A_j)
    are formed.
    """

    def __init__(self, auxes, values: JumpValues):
        self.ns = np.array([aux.n for aux in auxes])
        self.values = values
        self._h_weights = np.array([h_weights(aux) for aux in auxes])
        self._A = np.array([aux.A for aux in auxes])

    def circle_entry(self, j: int, z) -> np.ndarray:
        """v at points z of circle j, shape (len(ns), len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        sign, R, transforms, g, w = self.values.circle(j, z)
        expo = 2.0 * combine_h(self._h_weights, R, transforms) - 2.0 * self.ns[:, None] * g
        # exp underflows to exactly 0 below UNDERFLOW_EXPONENT, so it is taken
        # only elsewhere; a NaN or infinite exponent still goes through it.
        scale = np.zeros_like(expo)
        np.exp(expo, out=scale, where=~(expo.real < UNDERFLOW_EXPONENT))
        return sign * scale / w

    def circle_jump(self, j: int, z) -> np.ndarray:
        """The jump [[1, 0], [v, 1]] at points z of circle j, shape
        (len(ns), len(z), 2, 2); the solver reads circle_entry instead."""
        v = self.circle_entry(j, z)
        out = np.zeros(v.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        out[..., 1, 0] = v
        return out

    def band_jump(self, j: int, x) -> tuple:
        """(F_01, F_10) = (w e^-A_j, -e^A_j / w) at real points x of band j, w
        the weight from above, each of shape (len(ns), len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        w = self.values.band_weight(j, x)
        a_j = self._A[:, j, None]
        return w * np.exp(-a_j), -np.exp(a_j) / w


@dataclass
class ResidualReport:
    """Off-collocation jump defect over every piece; rcond, LAPACK dgecon's
    estimate of the reciprocal 1-norm condition number of the real band
    system (it moves by up to 1e-3 relative under rounding: compare to 2-3
    digits);
    and circle_deviation, the largest |F - I| over every circle's nodes, a
    precision proxy (0 without circles)."""

    off_collocation: float
    rcond: float
    circle_deviation: float


@dataclass
class RHSolution:
    """Solved coefficients of the 2x2 unknown, piece by piece.

    Every band carries a density, and so does every circle the solve kept:
    circle_coeffs has an entry for kept circle j of the contour set the
    problem was posed on, none for a circle whose jump is the identity to
    within IDENTITY_JUMP, holding its column-0 density (column 1's is 0).
    operator is that contour set's collocation operator; its circles and
    bases are the solution's, and eval takes its tables from there.
    """

    circle_coeffs: dict           # kept circle j -> column 0, array (2, n_points), [row, k]
    band_coeffs: list             # per band: array (2, 2, n_points)
    residual: ResidualReport
    operator: CollocationOperator = field(repr=False, compare=False)

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
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zz.shape + (2, 2), dtype=complex)
        for j, coeff in self.circle_coeffs.items():
            span, table = self.operator.circle_at(self.operator.circles[j], zz)
            out[..., 0] += table @ coeff[:, span].T
        for m, kernels in enumerate(self.operator.kernels_at(zz)):
            out[..., m] += kernels @ np.concatenate([c[:, m, :] for c in self.band_coeffs], axis=1).T
        return out[0] if scalar else out


@dataclass
class BlockSolution:
    """The solves of one block of indices.

    solutions maps each index of the block to its RHSolution, or to the
    SolverError its solve failed with; block[n] returns the one or raises the
    other.  residual is the block's worst: the largest off-collocation
    residual and the smallest rcond over the indices that were solved (NaN if
    none was), the largest circle deviation over all of them.  stages holds
    the seconds the block spent in each of STAGES.
    """

    solutions: dict
    residual: ResidualReport
    stages: dict

    def __getitem__(self, n: int) -> RHSolution:
        outcome = self.solutions[n]
        if isinstance(outcome, SolverError):
            raise outcome.with_traceback(None)
        return outcome


def _circle_table(circ: Circle, z) -> tuple:
    """(span, table): the Laurent basis at points z off the circle, truncated to
    the consecutive exponents circ.exponents[span] whose largest |power| over z
    reaches LAURENT_CUT; table has shape (len(z), that many).  Interior rows
    carry the nonnegative powers, exterior rows the negated negative powers."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = (z - circ.center) / circ.radius
    n_neg = int(np.count_nonzero(circ.exponents < 0))
    r = np.abs(w)
    inner = r < 1.0
    # An exterior point's powers fall off like r^-k, an interior one's like
    # r^k, so the farthest of each from the circle set how many are kept.
    neg = _reaching(1.0 / np.min(r[~inner]), n_neg) if not np.all(inner) else 0
    pos = 1 + _reaching(np.max(r[inner]), len(circ.exponents) - n_neg - 1) if np.any(inner) else 0
    # Powers by running products over the consecutive exponents, one row per
    # exponent.  Each point takes only the half that decays there, the
    # exterior half from 1/w, so no power overflows; far points' high powers
    # underflow to zero, which is their value.
    table = np.empty((neg + pos, len(w)), dtype=complex)
    with np.errstate(under="ignore"):
        if pos:
            table[neg] = inner
            _powers(np.where(inner, w, 0.0), out=table[neg + 1:])
        _powers(np.divide(1.0, w, out=np.zeros_like(w), where=~inner), out=table[:neg][::-1])
    table[:neg] *= -1.0
    return slice(n_neg - neg, n_neg + pos), table.T


def _reaching(x: float, count: int) -> int:
    """How many of x, x^2, ..., x^count reach LAURENT_CUT, for 0 <= x <= 1;
    all of them for x = 1 or NaN, whose table then carries the NaN on."""
    if not x < 1.0:
        return count
    with np.errstate(divide="ignore"):
        return min(count, int(np.log(LAURENT_CUT) / np.log(x)))


def _powers(x: np.ndarray, out: np.ndarray) -> None:
    """x, x^2, ..., x^len(out) into the rows of out."""
    np.multiply.accumulate(np.broadcast_to(x, out.shape), axis=0, out=out)


def _coefficients(circ: Circle, d: np.ndarray) -> np.ndarray:
    """The Laurent coefficients, on circ.exponents along the last axis, of the
    column-0 density whose values d (..., row r, upper point) are given at
    circ's upper points: W^-1 d over every node, W the Laurent table at the
    nodes, as a DFT.  Below the real axis row 0's values are conj, row 1's
    -conj of those at the mirror node (module docstring), so the DFT of row 0
    is real and that of row 1 imaginary: each is a Hermitian FFT of the upper
    nodes' values."""
    n = circ.n_points
    upper = d[..., :n // 2 + 1]
    spectrum = np.stack([np.fft.hfft(upper[..., 0, :], n),
                         -1j * np.fft.hfft(1j * upper[..., 1, :], n)], axis=-2)
    return spectrum[..., circ.exponents % n] / n


def _series_on_test_nodes(circ: Circle, u: np.ndarray) -> np.ndarray:
    """The Laurent series with coefficients u (last axis on circ.exponents)
    at circ's upper test nodes, the nodes turned by half a step: an inverse
    DFT of u times that phase.  It is the jump of its Cauchy transform
    there."""
    n = circ.n_points
    exps = circ.exponents
    spectrum = np.empty(u.shape[:-1] + (n,), dtype=complex)
    spectrum[..., exps % n] = u * np.exp(1j * np.pi * exps / n)
    return n * np.fft.ifft(spectrum, axis=-1)[..., :n // 2]


def default_bases(spec: WeightSpec) -> tuple:
    """Column bases matching the endpoint conditions: the first column takes the
    kind with negated exponents, the second the band's own kind."""
    return tuple((kind.flipped, kind) for kind in spec.kinds)


def solve_matrix_rhp(spec: WeightSpec, contours: ContourSet, jumps) -> BlockSolution:
    """Solve the block collocation system of every index of jumps.ns, both
    rows at once, in the kernel bases default_bases(spec), which must be the
    contour set's (DomainError otherwise: contours built for a weight of the
    same kinds).  jumps gives the indices ns and, stacked over them, the jump
    data at a piece's points: circle_entry(j, z) on circle j, the entry v of
    its jump [[1, 0], [v, 1]], shape (len(ns), len(z)), and band_jump(j, x)
    on band j, the entries (F_01, F_10) of its jump [[0, F_01], [F_10, 0]],
    each of shape (len(ns), len(x)).

    A circle's jump is read as v at its upper points only (Circle.upper): by
    the Schwarz symmetry v at a lower point is -conj of v at its mirror
    point, so a circle jump that is not unit lower-triangular, or not
    Schwarz-symmetric, cannot be expressed.  Circle j is dropped for index n
    when max |v| over its nodes is below IDENTITY_JUMP: it then carries no
    density to double precision.  On a kept circle the column-1 density
    vanishes and the column-0 density is an explicit function of the band
    unknowns, so only the bands are factored, one system per index.  Each
    solution's circle_coeffs hold the circles its index kept.

    The band jumps are collocated in the form [[0, f], [-1/f, 0]], f real,
    that a real weight gives: the real band system (module docstring) reads
    only Re F_10 at the band nodes, where a band jump of this form is fixed
    by it.  The off-collocation residual takes both entries, complex, at
    every band test node and v at every upper circle test node, the dropped
    circles' included, so a band jump of another form (F_10 not real, or
    F_01 F_10 != -1), or a circle entry off the density's, shows there;
    above RESIDUAL_WARN it warns, naming the index.  An index fails alone,
    with a SolverError carrying its circle_deviation, if an entry of its band
    jump is not finite at a band node or test node (before its system is
    factored), its band system is singular (as for F_10 = 0), or its
    solution or residual is not finite, which is also how an overflow or a
    circle entry that is not finite shows.  The operator's tables are built
    by the first solve that needs them (the "tables" stage).
    """
    if default_bases(spec) != contours.bases:
        raise DomainError("the contour set was built for a weight of other kinds")
    with np.errstate(over="ignore", invalid="ignore"):
        block = _solve(contours, jumps)
    for n, sol in block.solutions.items():
        if isinstance(sol, RHSolution) and sol.residual.off_collocation > RESIDUAL_WARN:
            warnings.warn(
                f"off-collocation jump residual {sol.residual.off_collocation:.2e} exceeds "
                f"{RESIDUAL_WARN:.1e} (n={n}); increase resolution",
                ResidualWarning, stacklevel=2)
    return block


def _solve(contours: ContourSet, jumps) -> BlockSolution:
    """solve_matrix_rhp's block, without its warnings.  Arrays carry the
    block's indices in their leading axis."""
    stages = dict.fromkeys(STAGES, 0.0)
    clock = [time.perf_counter()]

    def lap(stage: str) -> None:
        clock.append(time.perf_counter())
        stages[stage] += clock[-1] - clock[-2]

    op = contours.operator
    lap("tables")

    ns = [int(n) for n in jumps.ns]
    count = len(ns)
    errors = [""] * count
    # v[j]: circle j's jump entry F_10 at its upper points, one row per index.
    v = [jumps.circle_entry(j, z) for j, z in enumerate(op.circle_points)]
    # deviation[j, k]: max |v| of circle j at its nodes for index k, read at
    # the upper nodes, whose |v| the lower ones repeat.
    deviation = np.array([np.max(np.abs(vj[:, :c.n_points // 2 + 1]), axis=1)
                          for vj, c in zip(v, contours.circles)]).reshape(-1, count)
    circle_deviation = np.max(deviation, axis=0, initial=0.0)
    keeps = ~(deviation < IDENTITY_JUMP)
    # (F_01, F_10) at every band node and at every band test node.
    F, test_F = ([np.concatenate(entry, axis=1)
                  for entry in zip(*(jumps.band_jump(j, x) for j, x in enumerate(points)))]
                 for points in (op.band_nodes, op.band_test_nodes))
    finite = np.all(np.isfinite(np.hstack(F + test_F)), axis=1)
    for k in np.flatnonzero(~finite):
        errors[k] = errors[k] or "band jump is not finite at its nodes and test nodes"
    # F_10 at the band nodes, with its copy for the imaginary parts' rows.
    f = np.tile(F[1].real, 2)
    del F
    lap("jumps")
    tables = {j: op.circle_tables(j) for j in np.flatnonzero(np.any(keeps, axis=1)).tolist()}
    lap("tables")

    T = op.left.shape[1]
    # Column 0's equations in y, real parts above imaginary parts, with the
    # right-hand sides -1 (row 0) and -i F_10 (row 1).  Each system is the
    # transpose of a C-ordered slice, so it is in Fortran order and LAPACK
    # factors it in place instead of copying it.
    A = np.empty((count, 2 * T, 2 * T)).transpose(0, 2, 1)
    A[:, :, :T] = op.left
    np.multiply(-f[:, :, None], op.right, out=A[:, :, T:])
    rhs = np.zeros((count, 2 * T, 2))
    rhs[:, :T, 0] = -1.0
    rhs[:, T:, 1] = -f[:, T:]
    # On a kept circle c the column-1 rows read W u_c1 = 0 with W the Laurent
    # table at c's own nodes, so u_c1 = 0, and the column-0 rows give
    # u_c0 = W^-1 v (K u_B1 + [r == 1]) with K the bands' column-1 tables at
    # c's nodes (and a column of ones).  Its Cauchy transform at the band
    # nodes is G_c v K (u_B1, [r == 1]); substituting it into the band rows
    # leaves a system in the band unknowns only.  op.coupling's real columns
    # :T add to the real parts' rows, and its column T is the imaginary part
    # of the identity's share, which row 1's right-hand side -i (F_10 - i C)
    # takes as -C in its real parts' rows.
    for j in tables:
        for k in np.flatnonzero(keeps[j]):
            coupling = op.coupling(j, v[j][k])
            A[k, :T, T:] += coupling[:, :T]
            rhs[k, :T, 1] -= coupling[:, T]
    lap("assembly")

    y, rcond = _factor(A, rhs, errors)
    del A  # freed, factored, before the residual's arrays are made
    X = y * _PHASES[np.repeat([0, 1], T)]
    lap("lu")

    # Per circle, v (K u_B1 + [r == 1]) at its upper points by index and row
    # r, from one product per circle over the block with the indices and rows
    # in Xe's rows: a row of a matrix product does not depend on the others,
    # so an index's values do not depend on its block.
    Xe = np.zeros((count, 2, T + 1), dtype=complex)
    Xe[..., :T] = X[:, T:].transpose(0, 2, 1)
    Xe[:, 1, T] = 1.0
    Xe = Xe.reshape(2 * count, T + 1)
    vKX = [vj[:, None] * (Xe @ K.T).reshape(count, 2, -1) for vj, K in zip(v, op.circle_K)]
    # u0[j]: u_c0 by row r of the indices that keep circle j.
    u0 = {j: _coefficients(contours.circles[j], vKX[j][keeps[j]]) for j in tables}
    residual = _off_collocation_residual(op, keeps, tables, u0, vKX, X, test_F)
    for k in np.flatnonzero(~np.isfinite(residual)):
        errors[k] = errors[k] or "off-collocation jump residual is not finite"

    solutions = {}
    for k, n in enumerate(ns):
        if errors[k]:
            solutions[n] = SolverError(errors[k], float(circle_deviation[k]))
            continue
        # X rows: column m of the unknown on band q; X columns: the row r.
        band_coeffs = [np.stack([X[k, span].T, X[k, T:][span].T], axis=1) for span in op.spans]
        report = ResidualReport(float(residual[k]), float(rcond[k]), float(circle_deviation[k]))
        solutions[n] = RHSolution(circle_coeffs={}, band_coeffs=band_coeffs, residual=report,
                                  operator=op)
    for j, u in u0.items():
        for k, coeff in zip(np.flatnonzero(keeps[j]), u):
            sol = solutions[ns[k]]
            if isinstance(sol, RHSolution):
                sol.circle_coeffs[j] = coeff
    solved = np.array([not error for error in errors])
    worst = (float(np.max(residual[solved])), float(np.min(rcond[solved]))) if solved.any() \
        else (np.nan, np.nan)
    report = ResidualReport(*worst, float(np.max(circle_deviation)))
    lap("residual")
    return BlockSolution(solutions=solutions, residual=report, stages=stages)


def lu_factor(a: np.ndarray) -> tuple:
    """(lu, piv): LAPACK dgetrf's LU factorization of the real square matrix
    a, in place where a is Fortran-ordered float64.  A singular a shows as a
    zero on lu's diagonal."""
    lu, piv, _ = _lapack.dgetrf(a, overwrite_a=True)
    return lu, piv


def lu_solve(lu_piv: tuple, b: np.ndarray) -> np.ndarray:
    """The solution x of a x = b from lu_factor(a), by LAPACK dgetrs."""
    return _lapack.dgetrs(*lu_piv, b)[0]


def _factor(A: np.ndarray, rhs: np.ndarray, errors: list) -> tuple:
    """(y, rcond): per index k, the LU factorization of A[k] in place, the
    solution for rhs[k] and dgecon's condition estimate; errors[k] names a
    singular or non-finite system (y[k] is then 0 or not finite).  An index
    whose error is named already is not factored, and its y[k] stays 0."""
    y = np.zeros_like(rhs)
    rcond = np.full(len(A), np.nan)
    # The 1-norms of every system, taken before they are factored.
    anorms = np.max(np.sum(np.abs(A), axis=1), axis=1)
    for k in range(len(A)):
        if errors[k]:
            continue
        lu, piv = lu_factor(A[k])
        if np.any(np.diagonal(lu) == 0.0):
            errors[k] = "collocation system is numerically singular"
            continue
        y[k] = lu_solve((lu, piv), rhs[k])
        rcond[k] = _lapack.dgecon(lu, anorms[k])[0]
    for k in np.flatnonzero(~np.all(np.isfinite(y), axis=(1, 2))):
        errors[k] = errors[k] or "collocation solution is not finite"
    return y, rcond


def _off_collocation_residual(op: CollocationOperator, keeps: np.ndarray, tables: dict,
                              u0: dict, vKX: list, X: np.ndarray,
                              test_F: np.ndarray) -> np.ndarray:
    """Per index of the block, the max jump defect |Phi_+ - Phi_- F| at every
    band test node and every upper circle test node, the dropped circles'
    included.

    keeps[j] marks the indices that keep circle j, tables and u0 hold each
    kept circle's tables and the column-0 coefficients of those indices,
    vKX[j] circle j's v Phi_-,r1 at its upper points by index and row, X the
    band unknowns and test_F the band jump's entries (F_01, F_10) at the band
    test nodes.  On circle j F = [[1, 0], [v, 1]] and only circle j's own
    density jumps, so the defect there is J - v Phi_-,r1 in column 0, with J
    circle j's series (0 if dropped), and exactly 0 in column 1.  At a lower
    test node it is +-conj of the defect at the mirror node, which it
    therefore repeats.  On the bands F = [[0, F_01], [F_10, 0]], in complex
    arithmetic and both columns, so a non-real F_10 or F_01 F_10 != -1 shows.
    """
    T = X.shape[1] // 2
    worst = []
    for j, (circ, values) in enumerate(zip(op.circles, vKX)):
        defect = -values[..., circ.n_points // 2 + 1:]
        if j in u0:
            defect[keeps[j]] += _series_on_test_nodes(circ, u0[j])
        worst.append(np.max(np.abs(defect), axis=(1, 2)))
    # [index, point, row, column] of the two boundary values of Phi - I at the
    # band test nodes, the bands in one product per column.
    above, below = (np.stack([t[0] @ X[:, :T], t[1] @ X[:, T:]], axis=-1)
                    for t in (op.test_plus, op.test_minus))
    for j, u in u0.items():
        *_, span, table = tables[j]
        part = table @ u[..., span].transpose(0, 2, 1)
        above[keeps[j], :, :, 0] += part
        below[keeps[j], :, :, 0] += part
    # Phi_- F: column c is Phi_-'s column 1 - c times F's entry in column c.
    F01, F10 = test_F
    defect = above - below[..., ::-1] * np.stack([F10, F01], axis=-1)[:, :, None]
    defect[..., 0, 0] += 1.0
    defect[..., 0, 1] -= F01
    defect[..., 1, 0] -= F10
    defect[..., 1, 1] += 1.0
    worst.append(np.max(np.abs(defect), axis=(1, 2, 3)))
    return np.max(worst, axis=0)


def first_order(sol: RHSolution) -> np.ndarray:
    """The 1/z coefficient of the solved unknown at infinity.

    Exterior Laurent expansions contribute minus radius times the coefficient
    of the -1 power; band expansions contribute i/(2 pi) times the degree-0
    coefficient (only the degree-0 kernel carries a 1/z term).
    """
    out = np.zeros((2, 2), dtype=complex)
    for j, coeff in sol.circle_coeffs.items():
        circ = sol.operator.circles[j]
        idx = int(np.nonzero(circ.exponents == -1)[0][0])
        out[:, 0] -= circ.radius * coeff[:, idx]
    for coeff in sol.band_coeffs:
        out += _I2PI * coeff[:, :, 0]
    return out


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
- per geometry, the ContourSet: its circles, its bands at one ppi and its
  kernel bases (the default_bases of the weight it was built for).  Each
  point set it owns is made once, on first use: each circle's upper points
  (Circle.upper) and each band's nodes and test nodes; so is each of its two
  geometries (module cauchy): circle_geometry, J and S of every band and gap
  at every upper circle point, and the operator's, J and S of every band at
  every band point from above.  Its one CollocationOperator, built by the
  first solve on the contour set and kept for every later one, makes per
  column one stacked table call over every band at all band points, which
  gives the band system's (left, right) and the tables at the test nodes,
  and for column 1 one table call per circle on circle_geometry.  g and the
  h basis depend on the bands only too: JumpValues reads them from the
  GreenData at circle_geometry, in one call each, when the first solve asks
  for a circle jump, and keeps them per circle.
- per kept circle, in the operator: its coupling operand at the band nodes
  (G over the upper half-circle, in closed form: one geometric sum per band
  node and upper node, no table and no FFT) and its Laurent table at the
  band test nodes, built by the first solve that keeps it.
- per jump spec, in JumpValues: the weight values at each circle's upper
  points and at each band's nodes and test nodes, one call per point set.
- per block of indices, in one solve_matrix_rhp call, one NumPy call per
  step over all its indices: the circle jump entries (one exponential per
  circle over indices x upper points, taken only where it does not underflow
  to 0), one product of every circle's kernels with the band unknowns of
  every index, the kept circles' coefficients (two Hermitian FFTs each) and
  the residual (one stacked inverse FFT per circle, stacked products on the
  bands); per index, its real band system (the operator's left half, and its
  right half scaled by -F_10, plus the coupling: one real product per kept
  circle in the operator's buffers, summed there and added once) filled into
  the block's one system buffer, its 1-norm (LAPACK dlange), one
  lu_factor and lu_solve (dgetrf and dgetrs) in that buffer and one dgecon
  call, and its RHSolution.  Each step acts on every index alone, so an
  index's solution does not depend on its block, and an index whose solve
  fails fails alone.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lapack as _lapack

from .auxiliary import combine_h, h_basis, h_weights
from .cauchy import _I2PI, CutGeometry, Side, cauchy_cheb_table
from .chebyshev import Interval, Intervals, cheb_t_nodes
from .errors import DomainError, GeometryError, ResidualWarning, SolverError, WeightError
from .green import GreenData, eval_g
from .weights import WeightSpec

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
    A solve computes at the upper points only (upper; module docstring);
    nodes() and test_nodes() are those points completed by their conjugates.
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
        2 pi k / n_points from 0 to pi, then the test nodes strictly above the
        real axis, k = 0..n_points / 2 - 1, at angles 2 pi (k + 1/2) / n_points."""
        half = self.n_points // 2
        t = np.concatenate([np.arange(half + 1), np.arange(half) + 0.5])
        out = self.center + self.radius * np.exp(2j * np.pi * t / self.n_points)
        out.flags.writeable = False
        return out

    @cached_property
    def exponents(self) -> np.ndarray:
        """The Laurent exponents of a density on the circle, computed once and
        read-only: the n_points consecutive ones from -(n_points - 1 - P) to
        P, P = min(pos_modes, n_points / 2)."""
        c = self.n_points
        p = min(self.pos_modes, c // 2)
        out = np.arange(-(c - 1 - p), p + 1)
        out.flags.writeable = False
        return out

    def nodes(self) -> np.ndarray:
        """The equispaced collocation nodes, node k at angle 2 pi k / n_points:
        upper's nodes, then the conjugates of those strictly above the axis in
        mirror order, so nodes()[n_points - k] == conj(nodes()[k])."""
        above = self.upper[:self.n_points // 2 + 1]
        return np.concatenate([above, np.conj(above[-2:0:-1])])

    def test_nodes(self) -> np.ndarray:
        """The nodes turned by half a step, test node k at angle
        2 pi (k + 1/2) / n_points: upper's test nodes, then their conjugates
        in mirror order, test_nodes()[n_points - 1 - k] == conj(test_nodes()[k])."""
        above = self.upper[self.n_points // 2 + 1:]
        return np.concatenate([above, np.conj(above[::-1])])


@dataclass(frozen=True)
class ContourSet:
    """The circles and bands of one geometry, at ppi collocation points per
    band, with the kernel bases of the weight it was built for.

    Its point sets and geometries are made on first use and kept, so every
    solve on it shares them, whatever its jump spec and n (solve_matrix_rhp
    refuses a weight of other kinds): per band, its ppi first-kind Chebyshev
    roots (band_nodes) and its ppi second-kind ones (band_test_nodes);
    circle_geometry; and the one operator built from them.
    """

    circles: tuple
    bands: tuple                  # the band Intervals
    ppi: int
    bases: tuple                  # per band: (column-0 kind, column-1 kind)

    @cached_property
    def band_nodes(self) -> list:
        return [np.asarray(cheb_t_nodes(self.ppi, band)) for band in self.bands]

    @cached_property
    def band_test_nodes(self) -> list:
        t = np.cos((np.arange(self.ppi) + 1.0) * np.pi / (self.ppi + 1.0))
        return [np.asarray(band.from_unit(t)) for band in self.bands]

    @cached_property
    def operator(self) -> CollocationOperator:
        return CollocationOperator(self)

    @cached_property
    def circle_geometry(self) -> CutGeometry:
        """geometry_at every circle's upper points (Circle.upper, in circle
        order): the one geometry there of the operator's column-1 tables, the
        h basis and g (JumpValues)."""
        return self.geometry_at(np.concatenate([np.empty(0, dtype=complex)]
                                               + [c.upper for c in self.circles]))

    def geometry_at(self, z: np.ndarray) -> CutGeometry:
        """Every band, then every gap, seen off the contours from 1-d points
        z: the geometry that the h basis (auxiliary.h_basis), g
        (green.eval_g) and, through its band rows, the kernel tables share."""
        bands = list(self.bands)
        gaps = [Interval(left.b, right.a) for left, right in zip(bands, bands[1:])]
        return CutGeometry(Intervals(bands + gaps), z, Side.OFF)


class CollocationOperator:
    """The kernel tables of one contour set in its band bases.

    Nothing here depends on n or on the jump data.  Column m of the unknown is
    expanded on every band q in the kernel bases[q][m]:
    - test_plus[m]: the column-m kernels of all bands side by side, at all
      band test nodes, from above: a band's rows at its own test nodes hold
      its boundary values from above, every other entry the off-contour value.
    - test_jump[m]: per band, the jump of its own kernels across its test
      nodes, from above minus from below, shape (bands, points, kernels).
      From below a band's own table is -conj of the one from above, so the
      jump is 2 Re of it, and the tables from below are test_plus[m] less
      these blocks on the diagonal.
    - left, right: column 0's band equations in the real unknowns y (module
      docstring), each (2T, T), real parts above imaginary parts: with P, M
      the same tables at the band nodes, column 0's from above and column 1's
      from below, left = [-Im P; Re P] (the columns of i P) and right =
      [Re M; Im M], which an index scales by -F_10.
    - circle_points[j]: circle j's upper half (Circle.upper), its nodes at
      angles 0..pi, then its test nodes above the real axis.  The kernels at
      a lower point are -conj of those at its mirror point and are never
      formed (module docstring).
    - circle_kernels[j]: the column-1 kernels of all bands at
      circle_points[j], one row per kernel and one column per point.
    - circle_tables(j), for a circle some solve keeps: G^T, the closed-form
      map from its upper nodes' data to the band nodes, and its Laurent
      table at the band test nodes.  coupling forms with G^T and
      circle_kernels[j] an index's coupling product in buffers the operator
      keeps, so that an index's system receives one summed coupling.
    The band tables of column m are one stacked cauchy_cheb_table call over
    every band at every band node and test node, all from above (one
    cauchy.CutGeometry for both columns): on its own points a band's rows are
    its boundary values from above, and every other band's rows its real
    values off its cut.  Column 1's at a band's own nodes, which the band
    system reads from below, are -conj of them.  circle_kernels[j] is circle
    j's columns, a view, of one stacked table call over every circle's points
    on the contour set's circle_geometry (0.66 MB on four bands at 16 points
    per band, whose circles have 161 upper points each).  Circle j's tables
    (circle_tables) are built the first time a solve keeps circle j, and
    kept.  The tables at one point set off the contours (kernels_at,
    circle_at), which RHSolution.eval reads, are kept for the last point
    set only.
    """

    def __init__(self, contours: ContourSet):
        self.bases = bases = contours.bases
        self.circles = contours.circles
        self.band_nodes = contours.band_nodes
        self.band_test_nodes = contours.band_test_nodes
        self.circle_points = [c.upper for c in contours.circles]
        self.ppi = n = contours.ppi
        bands = len(contours.bands)
        T = n * bands
        self.spans = [slice(q * n, (q + 1) * n) for q in range(bands)]
        self.intervals = Intervals(contours.bands)
        geo = CutGeometry(self.intervals, np.concatenate(self.band_nodes + self.band_test_nodes),
                          Side.PLUS)
        self.test_plus, self.test_jump = [], []
        for m in range(2):
            table = cauchy_cheb_table([b[m] for b in bases], n, self.intervals, geo)
            # Band q's own (test node, degree) block, for every q.
            own = table[:, T:].reshape(bands, bands, n, n)[np.arange(bands), np.arange(bands)]
            self.test_jump.append((2.0 * own.real).astype(complex))
            # kernels[(q, k), p]: band q's degree-k kernel at band point p.
            kernels = _by_kernel(table)
            nodes = kernels[:, :T]
            if m:
                # Column 1's at a band's own nodes from below, the one the
                # band system reads: -conj of the one from above.
                for span in self.spans:
                    nodes[span, span] = -np.conj(nodes[span, span])
                self.right = np.hstack([nodes.real, nodes.imag]).T
            else:
                self.left = np.hstack([-nodes.imag, nodes.real]).T
            self.test_plus.append(np.ascontiguousarray(kernels[:, T:].T))
        at_circles = _by_kernel(cauchy_cheb_table([b[1] for b in bases], n, self.intervals,
                                                  contours.circle_geometry.part(slice(0, bands))))
        ends = np.cumsum([0] + [len(z) for z in self.circle_points]).tolist()
        self.circle_kernels = [at_circles[:, lo:hi] for lo, hi in zip(ends, ends[1:])]
        self._circle_tables: dict = {}
        self._last_points: tuple = (None, [], {})

    def circle_tables(self, j: int) -> tuple:
        """(G^T, span, table) for circle j, built on first request and kept.

        G, (T, U) with U = n_j / 2 + 1, maps data at circle j's upper nodes
        k = 0..n_j / 2 to the Cauchy transform at all band nodes of the
        density that interpolates it, in closed form (_circle_to_band), each
        column doubled but the two axis nodes' (k = 0 and n_j / 2).  G^T is
        its real transpose (2 U, T): rows 2k and 2k + 1 hold Re and -Im of
        column k, the operand of coupling.  (span, table) is _circle_table at
        all band test nodes, for the residual."""
        if j not in self._circle_tables:
            circ = self.circles[j]
            U = circ.n_points // 2 + 1
            T = len(self.left.T)
            G = _circle_to_band(circ, np.concatenate(self.band_nodes))
            G[:, 1:-1] *= 2.0
            G_T = np.empty((U, 2, T))
            G_T[:, 0], G_T[:, 1] = G.real.T, -G.imag.T
            self._circle_tables[j] = (G_T.reshape(2 * U, T),
                                      *_circle_table(circ, np.concatenate(self.band_test_nodes)))
        return self._circle_tables[j]

    def coupling(self, circles) -> np.ndarray:
        """The coupling into column 0's band equations of the circles one
        index keeps, given as pairs (j, v), v circle j's jump entry F_10 at
        its upper points (of which the upper nodes, its first n_j / 2 + 1
        entries, are read): the real (T, T + 1) matrix whose columns :T sum
        Re(G diag(v) K) over the circles, K the bands' column-1 tables at the
        nodes (circle_kernels[j]), and whose column T sums Im(G v), the
        identity's share.  It is the transposed view of a C-ordered
        (T + 1, T) buffer of the operator, which the next call overwrites.

        By the Schwarz symmetry G, v and K at a node below the real axis are
        conj G, -conj v and -conj K at its mirror image, so G diag(v) K is
        twice the real part of its sum over the nodes above the axis, plus
        the two axis nodes, and G v is i times the imaginary part of that
        sum.  Per circle it is one real product in reused buffers: the
        (T + 1, U) complex vK, K diag(v) above a row -i v for the identity's
        share, whose real view holds each node's pair (Re, Im), times
        circle_tables' G^T, whose rows hold the matching pairs (Re G, -Im G),
        is Re(G diag(v) [K; -i])^T; each circle's is added into one sum."""
        total, term, operand = self._coupling_buffers
        total[...] = 0.0
        for j, v in circles:
            G_T, _, _ = self.circle_tables(j)
            U = len(G_T) // 2
            vK = operand[:len(total) * U].reshape(-1, U)
            np.multiply(self.circle_kernels[j][:, :U], v[:U], out=vK[:-1])
            np.multiply(v[:U], -1j, out=vK[-1])
            np.matmul(vK.view(float), G_T, out=term)
            total += term
        return total.T

    @cached_property
    def _coupling_buffers(self) -> tuple:
        """coupling's buffers, made by its first call: the sum and one
        circle's product, each (T + 1, T), and one circle's complex operand,
        flat, sized for the largest circle."""
        T = len(self.left.T)
        U = max(c.n_points // 2 + 1 for c in self.circles)
        return (*np.empty((2, T + 1, T)), np.empty((T + 1) * U, dtype=complex))

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
        point set asked for: the solves of many indices evaluated at one
        point, as in pipeline._cauchy_at's, build them once, and the memo
        cannot grow."""
        key = z.tobytes()
        if self._last_points[0] != key:
            geo = CutGeometry(self.intervals, z)
            kernels = [np.ascontiguousarray(_by_kernel(cauchy_cheb_table(
                [b[m] for b in self.bases], self.ppi, self.intervals, geo)).T)
                for m in range(2)]
            self._last_points = (key, kernels, {})
        return self._last_points


def _by_kernel(table: np.ndarray) -> np.ndarray:
    """A stacked cauchy_cheb_table (intervals, points, n) as one row per
    kernel (interval, degree) and one column per point: a view."""
    return table.transpose(0, 2, 1).reshape(-1, table.shape[1])


def build_contours(spec: WeightSpec, ppi: int) -> ContourSet:
    """Per-band circles plus the bands themselves as collocation pieces: ppi
    points on each band, CIRCLE_POINTS_PER_PPI * ppi on each circle.  It
    checks the geometry and sizes the circles; every point set of the contour
    set is made later, on first use (ContourSet).

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
    return ContourSet(circles=tuple(circles), bands=tuple(bands), ppi=int(ppi),
                      bases=default_bases(spec))


def _validate_h_on_disk(spec: WeightSpec, j: int, center: float, radius: float) -> None:
    """h_j must be analytic and zero-free on the closed disk: w and 1/w enter
    the jump."""
    h = spec.h[j]
    for what, points in (("vanishes", h.zero_locations()), ("has a pole", h.pole_locations())):
        if np.any(np.abs(np.atleast_1d(points) - center) <= radius):
            raise WeightError(f"h on band {j} {what} inside its deformation disk")


class JumpValues:
    """The n-independent factors of the jumps of spec on one contour set,
    kept at the contour set's own point sets.

    The circle entry's sign, g and the h basis (auxiliary.h_basis) at every
    circle's upper points are made in one pass, g and the h basis in one call
    each from the contour set's circle_geometry, and kept per circle.  Read
    from the bands' GreenData green, they depend on the bands only, so every
    jump spec on them shares them (for_spec).  The weight belongs to the jump
    spec, kept per circle and per band node set, one weight_value call each.
    Any other point set, such as a circle's full nodes(), is evaluated alone
    and not kept; each point's value depends on that point only, so it is
    the kept value.  A circle's points are taken off the axis (Side.OFF; its
    axis node x + 0j gives the limit from above by the sign of its zero
    imaginary part), a band's from above.
    """

    def __init__(self, spec: WeightSpec, green: GreenData, contours: ContourSet):
        self.spec = spec
        self.green = green
        self.contours = contours
        self._circles: list = []
        self._weights: dict = {}

    def for_spec(self, spec: WeightSpec) -> JumpValues:
        """These values for a weight on the same bands: the per-circle sign,
        g and h basis are shared, the weights start empty."""
        out = JumpValues(spec, self.green, self.contours)
        out._circles = self._circles
        return out

    def _geometry_at(self, z, side: Side = Side.OFF) -> np.ndarray:
        """circle_jump's sign, R, the h basis and g at points z, or at the
        points of z, a CutGeometry for the bands then the gaps, stacked."""
        points = z.z if isinstance(z, CutGeometry) else z
        R, transforms = h_basis(self.green, z, side)
        return np.vstack([np.where(np.imag(points) < 0.0, 1.0, -1.0), R, transforms,
                          eval_g(self.green, z, side)])

    def _weight(self, key, j: int, z: np.ndarray, side: Side) -> np.ndarray:
        """spec.weight_value(j, z, side), kept under key; evaluated and not
        kept when key is None."""
        if key is None:
            return self.spec.weight_value(j, z, side)
        if key not in self._weights:
            self._weights[key] = self.spec.weight_value(j, z, side)
        return self._weights[key]

    def circle(self, j: int, z: np.ndarray) -> tuple:
        """(sign, R, transforms, g, weight) at complex points z of circle j; R
        and transforms as h_basis gives them."""
        circles = self.contours.circles
        own = z is circles[j].upper
        if own and not self._circles:
            values = self._geometry_at(self.contours.circle_geometry)
            ends = np.cumsum([0] + [len(c.upper) for c in circles]).tolist()
            self._circles.extend(values[:, lo:hi] for lo, hi in zip(ends, ends[1:]))
        values = self._circles[j] if own else self._geometry_at(z)
        weight = self._weight(("circle", j) if own else None, j, z, Side.OFF)
        return values[0], values[1], values[2:-1], values[-1], weight

    def band_weight(self, j: int, x: np.ndarray) -> np.ndarray:
        """The band-j weight's upper boundary value at real points x."""
        c = self.contours
        key = ("nodes", j) if x is c.band_nodes[j] else \
            ("test nodes", j) if x is c.band_test_nodes[j] else None
        return self._weight(key, j, x, Side.PLUS)


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
    system (it moved by 12% relative under a change of the system by
    rounding: compare its order of magnitude); and circle_deviation, the
    largest |F - I| over every circle's nodes, a precision proxy (0 without
    circles)."""

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
    SolverError its solve failed with.  residual is the block's worst: the
    largest off-collocation residual and the smallest rcond over the indices
    that were solved (NaN if none was), the largest circle deviation over all
    of them.  stages holds the seconds the block spent in each of STAGES.
    """

    solutions: dict
    residual: ResidualReport
    stages: dict


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


def _circle_to_band(circ: Circle, x: np.ndarray) -> np.ndarray:
    """G, shape (len(x), n_points / 2 + 1): the Cauchy transform at points x
    off the circle of the density that interpolates data at circ's upper
    nodes, column k for a unit value at node k: the untruncated Laurent table
    at x (_circle_table) times W^-1 = W^H / n, W the table at the nodes,
    in closed form.

    With w = (x - center) / radius, q = w e^(-2 pi i k / n) and P and -M the
    largest and smallest of circ.exponents, row x of column k sums q^e / n
    over e = 0..P inside the circle and minus it over e = -M..-1 outside, the
    geometric sums (1 - q^(P + 1)) / (n (1 - q)) and (1 - q^-M) / (n (1 - q))
    (Henrici, Numer. Math. 33, 1979).  M + P + 1 = n, so q^(P + 1) and q^-M
    are w^(P + 1) and w^-M times one phase, e^(-2 pi i (k (P + 1) mod n) / n),
    each power taken of the half that decays, so none overflows; far points'
    powers underflow to zero, which is their value."""
    n = circ.n_points
    P = int(circ.exponents[-1])
    k = np.arange(n // 2 + 1)
    w = ((np.asarray(x) - circ.center) / circ.radius)[:, None]
    inner = np.abs(w) < 1.0
    with np.errstate(under="ignore"):
        inside = np.where(inner, w, 0.0) ** (P + 1)
        outside = np.divide(1.0, w, out=np.zeros_like(w), where=~inner) ** (n - 1 - P)
    power = np.where(inner, inside, outside)
    return (1.0 - power * _unit_root(k * (P + 1), n)) / (n * (1.0 - w * _unit_root(k, n)))


def _unit_root(m: np.ndarray, n: int) -> np.ndarray:
    """e^(-2 pi i m / n) for integers m, its angle reduced exactly to
    [-pi/4, pi/4] and turned by a power of -i.  Taken at the full angle, an
    angle near 2 pi carries an error near eps 2 pi, which 1 - q in
    _circle_to_band amplifies to 2e-15 of max |G| at 120 and 240 nodes."""
    quarter = np.rint(4 * (m % n) / n).astype(int)
    rest = 4 * (m % n) - quarter * n
    return np.exp(-0.5j * np.pi * rest / n) * np.array([1, -1j, -1, 1j, 1])[quarter]


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
    y, rcond = _factor(op, f, [(j, keeps[j], v[j]) for j in tables], errors, lap)
    X = y * _PHASES[np.repeat([0, 1], T)]
    lap("lu")

    # Per circle, v (K u_B1 + [r == 1]) at its upper points by index and row
    # r, from one product per circle over the block, with the indices and
    # rows in its rows: a row of a matrix product does not depend on the
    # others, so an index's values do not depend on its block.
    u_B1 = X[:, T:].transpose(0, 2, 1).reshape(2 * count, T)
    vKX = []
    for vj, kernels in zip(v, op.circle_kernels):
        values = (u_B1 @ kernels).reshape(count, 2, -1)
        values[:, 1] += 1.0
        values *= vj[:, None]
        vKX.append(values)
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
    """(lu, piv, singular): LAPACK dgetrf's LU factorization of the real
    square matrix a, in place where a is Fortran-ordered float64, and
    whether a is singular, a zero on lu's diagonal (dgetrf's info > 0)."""
    lu, piv, info = _lapack.dgetrf(a, overwrite_a=True)
    return lu, piv, info > 0


def lu_solve(lu_piv: tuple, b: np.ndarray) -> np.ndarray:
    """The solution x of a x = b from lu_factor(a), by LAPACK dgetrs."""
    return _lapack.dgetrs(*lu_piv, b)[0]


def _factor(op: CollocationOperator, f: np.ndarray, kept: list, errors: list, lap) -> tuple:
    """(y, rcond): per index k, its real band system, column 0's equations
    in y with the right-hand sides -1 (row 0) and -i F_10 (row 1), f[k]
    holding F_10 at the band nodes twice, once for each half of the rows;
    kept lists (j, keeps[j], v[j]) for every circle some index keeps.

    Every index's system and right-hand sides are filled into one buffer
    each, the system Fortran-ordered so that LAPACK factors it in place
    (dgetrf); it is solved (dgetrs) and its condition estimated (dgecon,
    from the 1-norm dlange takes before the factoring) before the next index
    is filled, so a block holds one system.  The circles an index keeps
    enter its system as one matrix, op.coupling's sum over them.  errors[k]
    names a singular or non-finite system (y[k] is then 0 or not finite).
    An index whose error is named already is not assembled, and its y[k]
    stays 0.  lap times the assembly and the LU of each index.
    """
    T = op.left.shape[1]
    count = len(f)
    y = np.zeros((count, 2 * T, 2))
    rcond = np.full(count, np.nan)
    A = np.empty((2 * T, 2 * T), order="F")
    rhs = np.zeros((2 * T, 2))
    rhs[:T, 0] = -1.0
    for k in range(count):
        if errors[k]:
            continue
        A[:, :T] = op.left
        np.multiply(-f[k, :, None], op.right, out=A[:, T:])
        rhs[:T, 1] = 0.0
        rhs[T:, 1] = -f[k, T:]
        # On a kept circle c the column-1 rows read W u_c1 = 0 with W the
        # Laurent table at c's own nodes, so u_c1 = 0, and the column-0 rows
        # give u_c0 = W^-1 v (K u_B1 + [r == 1]) with K the bands' column-1
        # tables at c's nodes (and a column of ones).  Its Cauchy transform
        # at the band nodes is G_c v K (u_B1, [r == 1]); substituting it into
        # the band rows leaves a system in the band unknowns only.
        # op.coupling's real columns :T, summed over the kept circles, add to
        # the real parts' rows in one pass (both are column-major views), and
        # its column T is the imaginary part of the identity's share, which
        # row 1's right-hand side -i (F_10 - i C) takes as -C in its real
        # parts' rows.
        circles = [(j, vj[k]) for j, keep, vj in kept if keep[k]]
        if circles:
            coupling = op.coupling(circles)
            A[:T, T:] += coupling[:, :T]
            rhs[:T, 1] -= coupling[:, T]
        anorm = _lapack.dlange("1", A)
        lap("assembly")
        lu, piv, singular = lu_factor(A)
        if singular:
            errors[k] = "collocation system is numerically singular"
        else:
            y[k] = lu_solve((lu, piv), rhs)
            rcond[k] = _lapack.dgecon(lu, anorm)[0]
        lap("lu")
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
    # band test nodes: from above, the bands in one product per column and
    # the kept circles' densities, which do not jump there; from below, less
    # each band's jump across its own test nodes.
    columns = [X[:, :T], X[:, T:]]
    above = np.stack([t @ x for t, x in zip(op.test_plus, columns)], axis=-1)
    for j, u in u0.items():
        *_, span, table = tables[j]
        above[keeps[j], :, :, 0] += table @ u[..., span].transpose(0, 2, 1)
    bands = len(op.spans)
    below = above - np.stack([
        (jump @ x.reshape(len(X), bands, -1, 2)).reshape(x.shape)
        for jump, x in zip(op.test_jump, columns)], axis=-1)
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
        # the exponents are consecutive from circ.exponents[0] < 0
        out[:, 0] -= circ.radius * coeff[:, -1 - circ.exponents[0]]
    for coeff in sol.band_coeffs:
        out += _I2PI * coeff[:, :, 0]
    return out


"""Weight specifications: bands, endpoint exponents, and analytic scaling functions.

A weight is a sum over disjoint bands [a_j, b_j] of

    h_j(x) (sqrt(x - a_j))^alpha_j (sqrt(b_j - x))^beta_j,   alpha_j, beta_j in {-1, 1},

with each h_j positive on its closed band and analytic in a neighborhood large
enough to contain the deformation circle around the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cauchy import Side, side_root
from .chebyshev import ChebKind, Interval
from .errors import WeightError


class HFunction:
    """Scalar analytic function evaluable at real or complex arguments."""

    def __call__(self, z):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def zero_locations(self) -> np.ndarray:
        """Known complex zeros (where the reciprocal is singular); may be a
        representative subset for families with infinitely many."""
        return np.empty(0, dtype=complex)

    def pole_locations(self) -> np.ndarray:
        """Complex poles; none for an entire function."""
        return np.empty(0, dtype=complex)


@dataclass(frozen=True)
class HOne(HFunction):
    def __call__(self, z):
        return np.ones_like(np.asarray(z))

    def describe(self) -> str:
        return "1"


@dataclass(frozen=True)
class HExpScale(HFunction):
    """exp(c x) + offset; offset defaults to 0."""

    c: float
    offset: float = 0.0

    def __call__(self, z):
        return np.exp(self.c * np.asarray(z)) + self.offset

    def describe(self) -> str:
        return f"exp({self.c:g} x)" + (f" + {self.offset:g}" if self.offset else "")

    def zero_locations(self) -> np.ndarray:
        if self.offset == 0.0 or self.c == 0.0:
            return np.empty(0, dtype=complex)
        if self.offset > 0.0:
            # exp(c x) = -offset: nearest pair of the vertical zero ladder.
            base = np.log(self.offset)
            return np.array([base + 1j * np.pi, base - 1j * np.pi]) / self.c
        return np.array([np.log(-self.offset) / self.c], dtype=complex)


@dataclass(frozen=True)
class HPoly(HFunction):
    """Polynomial with ascending-power coefficients."""

    coeffs: tuple

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z), np.asarray(self.coeffs))

    def describe(self) -> str:
        return f"poly{list(self.coeffs)}"

    def zero_locations(self) -> np.ndarray:
        if len(self.coeffs) < 2:
            return np.empty(0, dtype=complex)
        return np.polynomial.polynomial.polyroots(np.asarray(self.coeffs)).astype(complex)


@dataclass(frozen=True)
class HRational(HFunction):
    """Ratio of polynomials, ascending-power coefficients."""

    num_coeffs: tuple
    den_coeffs: tuple

    def __call__(self, z):
        z = np.asarray(z)
        num = np.polynomial.polynomial.polyval(z, np.asarray(self.num_coeffs))
        den = np.polynomial.polynomial.polyval(z, np.asarray(self.den_coeffs))
        return num / den

    def describe(self) -> str:
        return f"rational({list(self.num_coeffs)}/{list(self.den_coeffs)})"

    def zero_locations(self) -> np.ndarray:
        return HPoly(self.num_coeffs).zero_locations()

    def pole_locations(self) -> np.ndarray:
        return HPoly(self.den_coeffs).zero_locations()


@dataclass(frozen=True)
class HProduct(HFunction):
    factors: tuple

    def __call__(self, z):
        out = np.ones_like(np.asarray(z, dtype=complex))
        for f in self.factors:
            out = out * f(z)
        return out

    def describe(self) -> str:
        return " * ".join(f.describe() for f in self.factors)

    def zero_locations(self) -> np.ndarray:
        locs = [f.zero_locations() for f in self.factors]
        return np.concatenate(locs) if locs else np.empty(0, dtype=complex)

    def pole_locations(self) -> np.ndarray:
        locs = [f.pole_locations() for f in self.factors]
        return np.concatenate(locs) if locs else np.empty(0, dtype=complex)


def h_from_config(obj) -> HFunction:
    """Build an HFunction from its JSON-config form."""
    if isinstance(obj, (list, tuple)):
        return HProduct(tuple(h_from_config(o) for o in obj))
    if not isinstance(obj, dict) or "type" not in obj:
        raise WeightError(f"h entry must be an object with a 'type' field, got {obj!r}")
    kind = obj["type"]
    if kind == "one":
        return HOne()
    if kind == "exp_scale":
        if "c" not in obj:
            raise WeightError("exp_scale h entry requires field 'c'")
        return HExpScale(float(obj["c"]), float(obj.get("offset", 0.0)))
    if kind == "poly":
        if "coeffs" not in obj:
            raise WeightError("poly h entry requires field 'coeffs'")
        return HPoly(tuple(float(c) for c in obj["coeffs"]))
    if kind == "rational":
        for key in ("num_coeffs", "den_coeffs"):
            if key not in obj:
                raise WeightError(f"rational h entry requires field '{key}'")
        return HRational(tuple(float(c) for c in obj["num_coeffs"]),
                         tuple(float(c) for c in obj["den_coeffs"]))
    if kind == "product":
        if "factors" not in obj:
            raise WeightError("product h entry requires field 'factors'")
        return HProduct(tuple(h_from_config(o) for o in obj["factors"]))
    raise WeightError(f"unknown h type {kind!r}")


@dataclass(frozen=True)
class WeightSpec:
    """Bands, per-band endpoint exponents (as ChebKind), and scaling functions."""

    bands: tuple
    kinds: tuple
    h: tuple

    def __post_init__(self):
        if not self.bands:
            raise WeightError("at least one band is required")
        if len(self.kinds) != len(self.bands) or len(self.h) != len(self.bands):
            raise WeightError("bands, kinds, and h must have equal lengths")
        for left, right in zip(self.bands, self.bands[1:]):
            if not left.b < right.a:
                raise WeightError(
                    f"bands must be strictly increasing and disjoint: [{left.a}, {left.b}] "
                    f"then [{right.a}, {right.b}]")
        for band, hj in zip(self.bands, self.h):
            xs = np.linspace(band.a, band.b, 128)
            vals = np.asarray(hj(xs), dtype=complex)
            if np.any(~np.isfinite(vals)) or np.any(vals.real <= 0.0) or np.any(np.abs(vals.imag) > 1e-12 * np.abs(vals.real)):
                raise WeightError(f"h = {hj.describe()} is not positive on [{band.a}, {band.b}]")

    @classmethod
    def build(cls, intervals: Sequence, kinds: Sequence, h=None) -> "WeightSpec":
        bands = tuple(iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals)
        kk = tuple(k if isinstance(k, ChebKind) else ChebKind(k) for k in kinds)
        if h is None:
            hh: tuple = tuple(HOne() for _ in bands)
        elif isinstance(h, HFunction):
            hh = tuple(h for _ in bands)
        else:
            hh = tuple(h)
        return cls(bands, kk, hh)

    @classmethod
    def single(cls, kind, interval=(-1.0, 1.0), h=None) -> "WeightSpec":
        return cls.build([interval], [kind], None if h is None else [h])

    @property
    def genus(self) -> int:
        return len(self.bands) - 1

    @property
    def gaps(self) -> tuple:
        return tuple(Interval(l.b, r.a) for l, r in zip(self.bands, self.bands[1:]))

    def with_exp_factor(self, t: float) -> "WeightSpec":
        """The spec with every h_j multiplied by exp(t x); identical geometry."""
        if t == 0.0:
            return self
        extra = HExpScale(t)
        return WeightSpec(self.bands, self.kinds,
                          tuple(HProduct((hj, extra)) for hj in self.h))

    def weight_value(self, j: int, z, side: Side = Side.OFF):
        """The band-j weight h_j(z) (sqrt(z-a))^alpha (sqrt(b-z))^beta.

        Off the axis the principal branches apply; on the axis the side selects
        the one-sided limit (the two limits differ by a sign outside the band).
        """
        band = self.bands[j]
        alpha, beta = self.kinds[j].exponents
        u = np.asarray(z, dtype=complex if side is Side.OFF else float)
        sa, sb = side_root(u - band.a, side), side_root(band.b - u, side.mirrored)
        out = np.asarray(self.h[j](z), dtype=complex)
        out = out * (sa if alpha > 0 else 1.0 / sa)
        out = out * (sb if beta > 0 else 1.0 / sb)
        return out if out.shape else complex(out)

"""Command-line front end: JSON weight configs in, CSV tables out.

Exit codes: 0 success, 1 config/usage error or an argument outside an
operation's domain, 2 numerical failure.
Output is deterministic: full-precision floats, newline endings, metadata only
in '#'-prefixed comment lines.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chebyshev import ChebKind, Interval
from .errors import DomainError, RHJacobiError, WeightError
from .oracle import adaptive_oracle
from .pipeline import DEFAULT_PPI, SolveContext, recip_approx, recurrence_range, toda_evolve
from .weights import WeightSpec, h_from_config

CONFIG_FIELDS = ("intervals", "kinds", "h", "resolution")


class ConfigError(Exception):
    """Invalid configuration document; the message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def load_config(path: str):
    """(spec, ppi) from a JSON config; ConfigError names the bad field.  A
    top-level 'h' list holds one entry per band; an h for every band is one
    object, and a product on every band is {"type": "product", "factors": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for key in doc:
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown field '{key}'")
    for required in ("intervals", "kinds"):
        if required not in doc:
            raise ConfigError(f"config is missing required field '{required}'")
    intervals = doc["intervals"]
    if not isinstance(intervals, list) or not intervals:
        raise ConfigError("field 'intervals' must be a nonempty list of [a, b] pairs")
    bands = []
    for i, pair in enumerate(intervals):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"field 'intervals[{i}]' must be a pair [a, b]")
        try:
            bands.append(Interval(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError, RHJacobiError) as exc:
            raise ConfigError(f"field 'intervals[{i}]' is invalid: {exc}")
    kinds_doc = doc["kinds"]
    if not isinstance(kinds_doc, list) or len(kinds_doc) != len(bands):
        raise ConfigError("field 'kinds' must be a list matching 'intervals' in length")
    kinds = []
    for i, entry in enumerate(kinds_doc):
        try:
            if isinstance(entry, str):
                kinds.append(ChebKind(entry))
            elif isinstance(entry, list) and len(entry) == 2:
                kinds.append(ChebKind.from_exponents(int(entry[0]), int(entry[1])))
            else:
                raise ValueError("must be 'T'|'U'|'V'|'W' or [alpha, beta]")
        except (ValueError, WeightError) as exc:
            raise ConfigError(f"field 'kinds[{i}]' is invalid: {exc}")
    h_doc = doc.get("h")
    per_band = h_doc if isinstance(h_doc, list) else [h_doc] * len(bands)
    if len(per_band) != len(bands):
        raise ConfigError("field 'h' as a list must match 'intervals' in length")
    try:
        hs = None if h_doc is None else [h_from_config(e) for e in per_band]
    except WeightError as exc:
        raise ConfigError(f"field 'h' is invalid: {exc}")
    try:
        spec = WeightSpec.build(bands, kinds, hs)
    except WeightError as exc:
        raise ConfigError(f"invalid weight specification: {exc}")

    res_doc = doc.get("resolution", {})
    if not isinstance(res_doc, dict):
        raise ConfigError("field 'resolution' must be an object")
    for key in res_doc:
        if key != "ppi":
            raise ConfigError(f"unknown field 'resolution.{key}'")
    ppi = res_doc.get("ppi", DEFAULT_PPI)
    if isinstance(ppi, bool) or not isinstance(ppi, int):
        raise ConfigError(f"field 'resolution.ppi' must be an integer, got {ppi!r}")
    return spec, ppi


def _ppi(args, ppi: int) -> int:
    """The config's ppi, or --ppi where given."""
    return ppi if args.ppi is None else args.ppi


def _write(out_path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_coeffs(args) -> int:
    spec, ppi = load_config(args.config)
    if not (0 <= args.n0 <= args.n1):
        raise ConfigError("need 0 <= n0 <= n1")
    segment = recurrence_range(spec, args.n0, args.n1,
                               context=SolveContext(spec, _ppi(args, ppi)))
    failures = dict(segment.meta["failures"])
    lines = ["n,a,b,residual"]
    for i, n in enumerate(segment.ns):
        if n in failures:
            lines.append(f"{n},,,{failures[n]}")
        else:
            lines.append(f"{n},{_fmt(segment.a[i])},{_fmt(segment.b[i])},"
                         f"{_fmt(segment.meta['residuals'][i])}")
    _write(args.out, lines)
    return 2 if failures else 0


def cmd_oracle(args) -> int:
    spec, _ = load_config(args.config)
    if not (0 <= args.n0 <= args.n1):
        raise ConfigError("need 0 <= n0 <= n1")
    segment = adaptive_oracle(spec, args.n1 + 1, args.tol)
    delta = segment.meta["delta"]
    lines = [f"# method=oracle m_per_band={segment.meta['m_per_band']}", "n,a,b,delta"]
    for n in range(args.n0, args.n1 + 1):
        lines.append(f"{n},{_fmt(segment.a[n])},{_fmt(segment.b[n])},{_fmt(delta)}")
    _write(args.out, lines)
    return 0


def cmd_toda(args) -> int:
    spec, ppi = load_config(args.config)
    if args.steps < 1:
        raise ConfigError("need steps >= 1")
    if args.steps == 1:
        times = np.array([args.t0])
    else:
        times = np.linspace(args.t0, args.t1, args.steps)
    traj = toda_evolve(spec, args.k, times, context=SolveContext(spec, _ppi(args, ppi)))
    lines = ["t,n,a,b"]
    failed = []
    for t, seg in zip(traj.times, traj.segments):
        failures = dict(seg.meta["failures"])
        for i, n in enumerate(seg.ns):
            if n in failures:
                lines.append(f"{_fmt(t)},{n},,")
                failed.append(f"# failure: t={_fmt(t)} n={n}: {failures[n]}")
            else:
                lines.append(f"{_fmt(t)},{n},{_fmt(seg.a[i])},{_fmt(seg.b[i])}")
    for t, dev in traj.warnings_:
        lines.append(f"# warning: circle jump magnitude {dev:.3e} at t={_fmt(t)} "
                     f"exceeds the precision horizon")
    _write(args.out, lines + failed)
    return 2 if failed else 0


def cmd_recip(args) -> int:
    spec, ppi = load_config(args.config)
    if args.nmax < 1:
        raise ConfigError("need at least one term")
    approx = recip_approx(spec, args.nmax, context=SolveContext(spec, _ppi(args, ppi)))
    lines = ["N,max_error,reference_rate"]
    for i in range(args.nmax):
        nterms = i + 1
        ref = np.exp(-nterms * approx.g0.real)
        lines.append(f"{nterms},{_fmt(approx.max_errors[i])},{_fmt(ref)}")
    _write(args.out, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with 1, not argparse's 2."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhjacobi",
        description="Recurrence coefficients and Cauchy transforms of multi-interval "
                    "Chebyshev-like orthogonal polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a JSON weight configuration")
        p.add_argument("--ppi", type=int, default=None,
                       help=f"collocation points per interval (default {DEFAULT_PPI})")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("coeffs", help="recurrence coefficients via the Riemann-Hilbert solver")
    common(p)
    p.add_argument("--n0", type=int, default=0)
    p.add_argument("--n1", type=int, default=50)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("oracle", help="recurrence coefficients via quadrature + Lanczos")
    common(p)
    p.add_argument("--n0", type=int, default=0)
    p.add_argument("--n1", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("toda", help="Toda-lattice evolution of the first k pairs")
    common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--k", type=int, default=11)
    p.set_defaults(func=cmd_toda)

    p = sub.add_parser("recip", help="series approximation of 1/x on the support")
    common(p)
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(func=cmd_recip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RHJacobiError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

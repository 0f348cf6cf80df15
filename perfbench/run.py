"""The rhjacobi benchmark: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload window --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src``.  A run
builds a fresh SolveContext per call (set-up), calls the public pipeline
function once per loop iteration until ``--seconds`` have passed (a closed
loop with one caller), then checks every pair against the oracle outside the
timed region.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it also traces one more request (spans.py) and prints the
per-layer metrics instead, the spans going to ``perfbench/out``.  The last
line of standard output is the result; the line before it records the
environment, the timing samples, every warning by category and every failure.

``--smoke`` runs each workload at a tiny size in both modes and checks that
every metric in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before NumPy loads: with the default two threads on
# a two-core machine the solve times roughly double and vary more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

if not (ROOT / "src" / "rhjacobi").is_dir():
    sys.exit(f"perfbench: no src/rhjacobi under {ROOT}; run from the root of a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rhjacobi import RHJacobiError, SolveContext  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, failed_rows  # noqa: E402

# Set-up takes milliseconds, so it is repeated before every call, which spreads
# its samples over the run.
SETUP_REPS = 10
# max|F - I| below which a circle's jump counts as the identity.
IDENTITY_DEVIATION = 1e-16
WARNING_CATEGORIES = ("ResidualWarning", "ImagPartWarning", "PrecisionWarning")
# The package's layers, plus the benchmark's own code inside a traced request.
LAYERS = ("chebyshev", "cauchy", "weights", "green", "auxiliary", "rhp", "pipeline", "oracle",
          "bench")


def environment() -> dict:
    """Where a result was measured: cores, BLAS threads and versions, git sha."""
    blas = {}
    site = Path(np.__file__).resolve().parent.parent
    for lib_dir, suffix in (("numpy.libs", "64_"), ("scipy.libs", "")):
        for path in glob.glob(str(site / lib_dir / "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
            if threads is None or config is None:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            blas[lib_dir.split(".")[0]] = {"threads": threads(), "config": config().decode()}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout's own repository, read from .git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run of one workload: samples, outputs, warnings, failures."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name, self.seed = name, seed
        self.case = WORKLOADS[name](np.random.default_rng(seed), tiny)
        self.setup_s: list = []
        self.solve_s: list = []
        self.outputs: list = []
        self.failures: list = []
        self.warnings = Counter()
        self.warning_messages: dict = {}

    def setup(self) -> SolveContext:
        t0 = time.perf_counter()
        ctx = SolveContext(self.case.spec)
        self.setup_s.append(time.perf_counter() - t0)
        return ctx

    def request(self, ctx) -> float:
        """One public call; its warnings, failures and output are kept as data."""
        out = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                out = self.case.call(ctx)
            except RHJacobiError as exc:
                self.failures.append({"call": len(self.outputs), "type": type(exc).__name__,
                                      "message": str(exc)})
            elapsed = time.perf_counter() - t0
        for w in caught:
            cat = w.category.__name__
            self.warnings[cat] += 1
            self.warning_messages.setdefault(cat, str(w.message))
        if out is None:
            self.outputs.append(None)
        else:
            rows, failures = self.case.values(out)
            self.outputs.append(rows)
            self.failures += [dict(f, call=len(self.outputs) - 1) for f in failures]
        return elapsed

    def loop(self, seconds: float) -> None:
        # The first call pays for cold caches; it is checked but not timed.
        self.request(self.setup())
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(SETUP_REPS):
                ctx = self.setup()
            self.solve_s.append(self.request(ctx))
            if time.perf_counter() >= deadline:
                break

    def check(self) -> tuple[int, int, float, int]:
        """(attempted, failed, reference seconds, oracle nodes per band)."""
        t0 = time.perf_counter()
        ref, m_per_band = self.case.reference()
        ref_s = time.perf_counter() - t0
        failed = sum(self.case.pairs if rows is None else failed_rows(rows, ref)
                     for rows in self.outputs)
        return self.case.pairs * len(self.outputs), failed, ref_s, m_per_band

    def end_to_end(self) -> dict:
        """The median call, and the fastest set-up.

        A set-up takes milliseconds and is sampled ten times before every
        call.  On a shared host the other tenants only ever add time, so the
        fastest sample is the steadiest estimate of the set-up's own cost: over
        runs of 30 s on two vCPUs its median spread 18-33% from run to run
        (quartile distance over median), its minimum 6-18%.
        """
        solve = statistics.median(self.solve_s)
        return {
            "setup_s": (min(self.setup_s), "s"),
            "solve_s": (solve, "s"),
            "pairs_per_s": (self.case.pairs / solve, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def traced(self):
        """One more request with every layer boundary traced."""
        warned = Counter(self.warnings)
        with Tracer() as tracer:
            tracer.call("bench.request", lambda: self.request(self.setup()))
        self.setup_s.pop()
        return tracer, self.warnings - warned


def identity_share(solves) -> float:
    """Share of (solve, circle) pairs whose jump is the identity to IDENTITY_DEVIATION."""
    devs = [float(np.max(np.abs(jumps.circle_jump(j, circ.nodes())[..., 1, 0])))
            for jumps, contours, _ in solves for j, circ in enumerate(contours.circles)]
    return sum(d < IDENTITY_DEVIATION for d in devs) / len(devs) if devs else 0.0


def per_layer(run: Run, tracer, warned: Counter, attempted: int, failed: int,
              ref_s: float, m_per_band: int) -> dict:
    spans = tracer.spans
    st = SpanStats(spans)
    request_s = st.total_s("bench.request")
    # Against the untraced request just before the traced one, so that the
    # host's slow drift in speed does not count as overhead.
    untraced_s = run.setup_s[-1] + run.solve_s[-1]
    solve_ms = np.array(st.durations["rhp.solve"]) * 1e3
    n = max(tracer.unknowns, default=0)
    lu_flop = sum(8.0 / 3.0 * k ** 3 for k in tracer.unknowns) \
        + st.calls("rhp.lu_solve") * 16.0 * n ** 2
    residuals = [sol.residual for _, _, sol in tracer.solves]
    parents_of_solves = {spans[i][3] for i, s in enumerate(spans) if s[0] == "rhp.solve"}
    requests = st.calls("pipeline.solution")
    misses = sum(1 for p in parents_of_solves if p >= 0 and spans[p][0] == "pipeline.solution")
    m = {
        "rhp.solve_calls": (st.calls("rhp.solve"), "count"),
        "rhp.solve_s": (st.total_s("rhp.solve"), "s"),
        "rhp.solve_self_s": (st.self_s("rhp.solve"), "s"),
        "rhp.solve_ms_p50": (float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0, "ms"),
        "rhp.solve_ms_p90": (float(np.percentile(solve_ms, 90)) if solve_ms.size else 0.0, "ms"),
        "rhp.lu_s": (st.total_s("rhp.lu_factor", "rhp.lu_solve"), "s"),
        "rhp.lu_calls": (st.calls("rhp.lu_factor"), "count"),
        "rhp.unknowns": (n, "count"),
        "rhp.lu_gflop_computed": (lu_flop * 1e-9, "GFLOP"),
        "rhp.matrix_mb_computed": (16.0 * n * n / 1e6, "MB"),
        "rhp.jump_s": (st.total_s("rhp.circle_jump", "rhp.band_jump"), "s"),
        "rhp.jump_calls": (st.calls("rhp.circle_jump", "rhp.band_jump"), "count"),
        "rhp.identity_circle_share": (identity_share(tracer.solves), "ratio"),
        "rhp.eval_calls": (st.calls("rhp.eval"), "count"),
        "rhp.eval_s": (st.total_s("rhp.eval"), "s"),
        "rhp.max_residual": (max((r.off_collocation for r in residuals), default=0.0), "1"),
        "rhp.min_rcond": (min((r.rcond for r in residuals), default=0.0), "1"),
        "rhp.first_order_calls": (st.calls("rhp.first_order"), "count"),
        "rhp.build_contours_s": (st.total_s("rhp.build_contours"), "s"),
        "cauchy.table_calls": (st.calls("cauchy.table"), "count"),
        "cauchy.table_s": (st.total_s("cauchy.table"), "s"),
        "cauchy.table_entries": (tracer.table_entries, "count"),
        "green.build_green_s": (st.total_s("green.build_green"), "s"),
        "green.eval_g_s": (st.total_s("green.eval_g"), "s"),
        "auxiliary.build_hsystem_s": (st.total_s("auxiliary.build_hsystem"), "s"),
        "auxiliary.solve_aux_calls": (st.calls("auxiliary.solve_aux"), "count"),
        "auxiliary.eval_h_s": (st.total_s("auxiliary.eval_h"), "s"),
        "chebyshev.adaptive_dct_calls": (st.calls("chebyshev.adaptive_dct"), "count"),
        "chebyshev.adaptive_dct_s": (st.total_s("chebyshev.adaptive_dct"), "s"),
        "weights.weight_value_s": (st.total_s("weights.weight_value"), "s"),
        "pipeline.solution_requests": (requests, "count"),
        "pipeline.solution_hit_ratio": ((requests - misses) / requests if requests else 0.0,
                                        "ratio"),
        "pipeline.warnings": (sum(warned.values()), "count"),
        "oracle.s": (ref_s, "s"),
        "oracle.m_per_band": (m_per_band, "count"),
        "trace.request_s": (request_s, "s"),
        "trace.overhead_frac": (request_s / untraced_s - 1.0, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    for cat in WARNING_CATEGORIES:
        m[f"pipeline.warnings.{cat}"] = (warned[cat], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (st.layer_self_s(layer), "s")
    return m


def write_spans(run: Run, spans: list) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run.name}-seed{run.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": run.name, "seed": run.seed,
                   "fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans}, fh)
    return str(path.relative_to(ROOT))


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run; returns (info, result) as printed."""
    run = Run(name, seed, tiny)
    run.loop(seconds)
    spans_file = None
    if trace:
        tracer, warned = run.traced()
    else:
        metrics = run.end_to_end()  # before the oracle adds to the peak RSS
    attempted, failed, ref_s, m_per_band = run.check()
    if trace:
        metrics = per_layer(run, tracer, warned, attempted, failed, ref_s, m_per_band)
        spans_file = write_spans(run, tracer.spans)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "pairs_per_call": run.case.pairs, "calls": len(run.solve_s),
        "solve_s_samples": run.solve_s, "setup_s_samples": run.setup_s,
        "warnings": dict(run.warnings), "warning_examples": run.warning_messages,
        "failures": run.failures, "spans_file": spans_file, "env": environment(),
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def smoke() -> int:
    """Each workload at a tiny size, both modes; every declared metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            _, result = measure(name, 0, 0.0, trace, tiny=True)
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[group]}
            if set(got) != set(want):
                problems.append(f"{name}/{group}: metrics differ: {sorted(set(got) ^ set(want))}")
            problems += [f"{name}/{group}: {k} has unit {got[k]['unit']}, declared {u}"
                         for k, u in want.items() if k in got and got[k]["unit"] != u]
            if trace:
                self_sum = sum(got[f"{layer}.self_s"]["value"] for layer in LAYERS)
                request = got["trace.request_s"]["value"]
                if abs(self_sum - request) > 1e-6 * request:
                    problems.append(f"{name}: layer self times sum to {self_sum}, "
                                    f"request took {request}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}/{group}: {result['failed']} of "
                                f"{result['attempted']} pairs failed")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics", flush=True)
    for p in problems:
        print("smoke FAIL", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric set")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

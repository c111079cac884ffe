"""Tracing for the traced run: spans and counts around robustmv's public calls.

The tracer replaces, for the length of the traced run, each traced function
in every robustmv module namespace that holds it, with a wrapper that times
the call.  Calls made from inside the package go through the same module
globals, so nested calls (the sampler inside verify_saddle, the premium
inside the numeric descent) are seen too.  Spans are aggregated in memory by
(name, parent name) with their total and self time, and written out at the
end of the run.  Nothing under src/ changes; the untraced run pays nothing.

Not thread-safe: simulations run single-threaded while traced.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import robustmv as rm
import robustmv.cli  # noqa: F401  (traced namespace)

TRACED = {
    "market": ("risk_premium", "covariance_from", "is_positive_definite", "_factor"),
    "ambiguity": ("sample", "contains", "project_rho"),
    "solver": ("solve", "numeric_minimize", "verify_saddle"),
    "strategy": ("robust_strategy", "classify", "value_v0"),
    "simulate": ("simulate_wealth", "simulate_optimal_exact", "verify_weak_principle", "estimate_objective"),
}
NAMESPACES = (rm, rm.market, rm.ambiguity, rm.solver, rm.strategy, rm.simulate, rm.cli)


def set_family(spec) -> str:
    if isinstance(spec, rm.ProductSet):
        return "product"
    return "full" if spec.gamma.full_ambiguity else "ellipsoidal"


def solve_family(label: str) -> str | None:
    for prefix, family in (("TwoAsset", "two_asset"), ("ThreeAsset", "three_asset"), ("FullAmbiguity", "full")):
        if label.startswith(prefix):
            return family
    return None


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.frame = tracer, [name, 0.0, None]
        self.start = time.perf_counter()
        self.factor0 = tracer.counts["factorizations"]
        tracer.stack.append(self.frame)

    def close(self):
        t = self.tracer
        t.stack.pop()
        t._record(self.frame, time.perf_counter() - self.start)
        t.counts["points"] += 1
        t.counts["point_factorizations"] += t.counts["factorizations"] - self.factor0


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, child seconds, call args]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> count, total, self
        self.counts = defaultdict(float)
        self.report_seconds = []
        self._patches = []
        self._probe_mark = 0.0

    # -- spans

    def _record(self, frame, elapsed):
        parent = self.stack[-1][0] if self.stack else None
        agg = self.spans[(frame[0], parent)]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed

    def point(self):
        """Span of one sweep operation; counts the factorizations inside it."""
        return _Span(self, "bench.point")

    def report_time(self, seconds):
        self.report_seconds.append(seconds)

    # -- wrapping

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._before(name, args)
            frame = [name, 0.0, args]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.stack.pop()
                tracer._record(frame, elapsed)
            tracer._after(name, args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, names in TRACED.items():
            owner = getattr(rm, module)
            for attr in names:
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{module}.{attr.lstrip('_')}", original)
                for ns in NAMESPACES:
                    if getattr(ns, attr, None) is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- counters

    def _before(self, name, args):
        top = self.stack[-1] if self.stack else None
        if name == "market.factor":
            self.counts["factorizations"] += 1
        elif name == "simulate.verify_weak_principle":
            self._probe_mark = self.counts["probe_sims"]
        elif name == "simulate.simulate_wealth" and top is not None and top[0] == "simulate.verify_weak_principle":
            self.counts["probe_sims"] += 1
        elif top is not None and top[0] == "ambiguity.sample":
            spec = top[2][0]
            family = set_family(spec)
            # One proposal per loop turn: a PD test for ellipsoidal sets, a
            # membership test for product sets.
            if (name == "market.is_positive_definite" and family != "product") or (
                name == "ambiguity.contains" and family == "product"
            ):
                self.counts[f"proposals.{family}.d{spec.d}"] += 1

    def _after(self, name, args, result, elapsed):
        if name == "ambiguity.sample":
            spec = args[0]
            family = set_family(spec)
            self.counts[f"draws.{family}"] += len(result)
            self.counts[f"draw_seconds.{family}"] += elapsed
            self.counts[f"draws.{family}.d{spec.d}"] += len(result)
        elif name == "simulate.verify_weak_principle":
            # Only completed verifications reach here; failed ones raise early.
            self.counts["verifications"] += 1
            self.counts["probe_runs"] += self.counts["probe_sims"] - self._probe_mark
        elif name == "solver.numeric_minimize":
            diag = result.diagnostics
            self.counts["numeric_calls"] += 1
            self.counts["numeric_iterations"] += diag["iterations"]
            self.counts["numeric_starts"] += diag["starts"]
            self.counts["numeric_unconverged"] += not diag["converged"]
        elif name == "solver.solve" and len(self.stack) <= 1:
            family = solve_family(result.case_label)
            if family:
                self.counts[f"closed.{family}"] += 1
                self.counts[f"closed_seconds.{family}"] += elapsed

    # -- results

    def total(self, name, parents=None, exclude=()):
        count, seconds, self_seconds = 0, 0.0, 0.0
        for (n, parent), (c, s, ss) in self.spans.items():
            if n == name and (parents is None or parent in parents) and parent not in exclude:
                count, seconds, self_seconds = count + c, seconds + s, self_seconds + ss
        return count, seconds, self_seconds

    def mean(self, name, scale=1.0, use_self=False, **kw):
        count, seconds, self_seconds = self.total(name, **kw)
        return scale * (self_seconds if use_self else seconds) / count if count else float("nan")

    def ratio(self, num, den, scale=1.0):
        return scale * self.counts[num] / self.counts[den] if self.counts[den] else float("nan")

    def metrics(self) -> dict:
        c = self.counts
        m = {
            "market.risk_premium_us": (self.mean("market.risk_premium", 1e6), "us"),
            "market.covariance_from_us": (self.mean("market.covariance_from", 1e6), "us"),
            "market.is_positive_definite_us": (self.mean("market.is_positive_definite", 1e6), "us"),
            "market.factorizations": (self.ratio("point_factorizations", "points"), "count"),
            "ambiguity.contains_us": (self.mean("ambiguity.contains", 1e6), "us"),
            "ambiguity.project_rho_us": (self.mean("ambiguity.project_rho", 1e6), "us"),
            "solver.numeric_ms": (self.mean("solver.numeric_minimize", 1e3), "ms"),
            "solver.numeric_iterations": (self.ratio("numeric_iterations", "numeric_calls"), "count"),
            "solver.numeric_starts": (self.ratio("numeric_starts", "numeric_calls"), "count"),
            "solver.numeric_unconverged": (c["numeric_unconverged"], "count"),
            "solver.saddle_ms": (self.mean("solver.verify_saddle", 1e3, use_self=True), "ms"),
            "strategy.report_us": (
                1e6 * statistics.fmean(self.report_seconds) if self.report_seconds else float("nan"), "us"),
            "simulate.euler_s": (
                self.mean("simulate.simulate_wealth", exclude=("simulate.verify_weak_principle",)), "s"),
            "simulate.exact_s": (self.mean("simulate.simulate_optimal_exact"), "s"),
            "simulate.probe_runs": (self.ratio("probe_runs", "verifications"), "count"),
            "simulate.probe_euler_s": (
                self.mean("simulate.simulate_wealth", parents=("simulate.verify_weak_principle",)), "s"),
            "simulate.estimate_objective_ms": (self.mean("simulate.estimate_objective", 1e3), "ms"),
        }
        for family in ("ellipsoidal", "full", "product"):
            m[f"ambiguity.sample_ms.{family}"] = (self.ratio(f"draw_seconds.{family}", f"draws.{family}", 1e6), "ms")
        for d in (3, 4, 5):
            m[f"ambiguity.sample_acceptance.full_d{d}"] = (
                self.ratio(f"draws.full.d{d}", f"proposals.full.d{d}"), "ratio")
        for family in ("two_asset", "three_asset", "full"):
            m[f"solver.closed_form_ms.{family}"] = (self.ratio(f"closed_seconds.{family}", f"closed.{family}", 1e3), "ms")
        return m

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "count": c, "total_s": s, "self_s": ss}
                for (n, p), (c, s, ss) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(self.counts),
        }

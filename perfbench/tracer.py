"""Per-layer spans and work counters, recorded from outside the package.

install() replaces each layer's public functions with a timing wrapper
at every import site (every fracineq module attribute bound to the
original function), so calls between modules are seen wherever they
come from.  A function's self time is its span time minus the spans of
wrapped functions it called.  Private helpers are not wrapped: a call
that reaches a public function only through one (residual reaching the
direct and kernel sides) is invisible here and its time stays in the
caller's self time.
"""

from __future__ import annotations

import sys
import time

# traced passes per run: the exact counters must repeat across them
MIN_PASSES = 2

LAYERS = {
    "quad": ("integrate", "integrate_singular"),
    "fracint": ("rl_left_result", "rl_right_result"),
    "specfun": ("gamma", "beta", "beta_inc", "hyp2f1"),
    "amconvex": ("check_am_convex", "is_admitted"),
    "identity": ("residual", "direct_side", "kernel_side"),
    "bounds": ("phi1", "phi2", "phi3", "phi4", "phi_oracle", "bound_thm211",
               "bound_thm22", "bound_sarikaya", "remark_bound",
               "corollary_check"),
    "harness": ("run_sweep",),
}


class _Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Spans and counters of one traced pass; reset() starts the next."""

    def __init__(self):
        self.stack = []        # [key, child seconds] per open span
        self.patched = []      # (module, attribute, original function)
        # (before, after) hooks that record counters at a layer boundary
        self.hooks = {
            "quad.integrate": (self._count_integrand, self._after_integrate),
            "amconvex.check_am_convex": (None, self._after_check),
            "identity.residual": (None, self._add_pair),
            "identity.direct_side": (None, self._add_pair),
        }
        self.reset()

    def reset(self):
        self.stats = {"%s.%s" % (layer, name): _Stat()
                      for layer, names in LAYERS.items() for name in names}
        self.subdivisions = 0
        self.gk15_passes = 0
        self.integrand_calls = 0
        self.grid_samples = 0
        self.admission_checks = 0
        self.pairs = set()
        self.csv_bytes = 0

    def install(self):
        """Wrap every layer function at every fracineq import site."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "fracineq" or name.startswith("fracineq.")}
        for layer, names in LAYERS.items():
            home = mods["fracineq." + layer]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap("%s.%s" % (layer, name), original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self.patched.append((mod, attr, original))

    def uninstall(self):
        """Put every original function back."""
        for mod, attr, original in self.patched:
            setattr(mod, attr, original)
        self.patched = []

    def _wrap(self, key, fn):
        stack = self.stack
        before, after = self.hooks.get(key, (None, None))

        def wrapper(*args, **kwargs):
            stat = self.stats[key]
            stat.calls += 1
            if before is not None:
                args = before(args)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.errors += 1
                if key == "quad.integrate":
                    self._count_quad(getattr(exc, "estimate", None))
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # --- counters recorded at the layer boundaries -------------------------

    def _count_integrand(self, args):
        f = args[0]

        def counted(x):
            self.integrand_calls += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _count_quad(self, res):
        if res is not None:
            self.subdivisions += res.subdivisions
            self.gk15_passes += 1 + 2 * res.subdivisions

    def _after_integrate(self, args, res):
        if args[2] > args[1]:
            self._count_quad(res)

    def _after_check(self, args, res):
        self.grid_samples += res.samples
        if self.stack and self.stack[-1][0] == "amconvex.is_admitted":
            self.admission_checks += 1

    def _add_pair(self, args, res):
        self.pairs.add((args[0], args[1].name))

    # --- per-layer metrics --------------------------------------------------

    def counters(self) -> dict:
        """Work counts of the pass; these repeat exactly for a fixed input."""
        s = self.stats
        out = {}
        for key, st in s.items():
            if key != "harness.run_sweep":
                out[key + ".calls"] = st.calls
        out["quad.subdivisions"] = self.subdivisions
        out["quad.gk15_passes"] = self.gk15_passes
        out["quad.integrand_calls"] = self.integrand_calls
        out["quad.integrand_calls_per_pass"] = _ratio(self.integrand_calls,
                                                      self.gk15_passes)
        out["quad.errors"] = (s["quad.integrate"].errors
                              + s["quad.integrate_singular"].errors)
        lookups = s["amconvex.is_admitted"].calls
        out["amconvex.cache_hit_ratio"] = (
            1.0 - self.admission_checks / lookups if lookups else 0.0)
        out["amconvex.grid_samples"] = self.grid_samples
        direct = s["identity.residual"].calls + s["identity.direct_side"].calls
        out["identity.distinct_pairs"] = len(self.pairs)
        out["identity.direct_evals_per_pair"] = _ratio(direct, len(self.pairs))
        cc = s["bounds.corollary_check"]
        out["bounds.corollary_useful_ratio"] = _ratio(cc.calls - cc.errors,
                                                      cc.calls)
        out["harness.csv_bytes"] = self.csv_bytes
        return out

    def self_times(self) -> dict:
        return {key + ".self_s": st.self_s for key, st in self.stats.items()}


def _ratio(num, den):
    return num / den if den else 0.0

"""Instrumentation installed from outside the package.

Every wrapper replaces a public function at the binding its caller looks
up (``meso`` and ``macro`` import ``lagrangian_step`` by name, ``stepping``
calls ``assemble_momentum`` and ``solve_cyclic_tridiagonal`` as globals,
``cli`` looks up ``diagnostics.coarse_grain`` on the module), so no file
of the package changes.

Two levels exist.  ``Watch`` is all the untraced end-to-end run carries:
a stopwatch around each scheme-runner call and a bare counter of accepted
steps.  ``Tracer`` adds a span (name, start, end, parent, pass id) at
every binding in ``SPAN_BINDINGS``; the per-layer metrics are derived
from those spans after the run.
"""

import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name); a span's layer is its name's prefix
SPAN_BINDINGS = (
    ("biphase1d", "run_meso", "meso.run"),
    ("biphase1d.cli", "run_meso", "meso.run"),
    ("biphase1d.meso", "step_meso", "meso.step"),
    ("biphase1d", "run_macro", "macro.run"),
    ("biphase1d.cli", "run_macro", "macro.run"),
    ("biphase1d.macro", "step_macro", "macro.step"),
    ("biphase1d.meso", "mixture_pressure", "materials.mixture_pressure"),
    ("biphase1d.meso", "mixture_viscosity", "materials.mixture_viscosity"),
    ("biphase1d.macro", "p_eff", "materials.p_eff"),
    ("biphase1d.macro", "mu_eff", "materials.mu_eff"),
    ("biphase1d.macro", "relaxation_rhs", "materials.relaxation_rhs"),
    ("biphase1d.meso", "lagrangian_step", "stepping.lagrangian_step"),
    ("biphase1d.macro", "lagrangian_step", "stepping.lagrangian_step"),
    ("biphase1d.stepping", "assemble_momentum", "stepping.assemble"),
    ("biphase1d.stepping", "solve_cyclic_tridiagonal", "tridiag.solve"),
    ("biphase1d.diagnostics", "snapshot", "diagnostics.snapshot"),
    ("biphase1d.diagnostics", "coarse_grain", "diagnostics.coarse_grain"),
    ("biphase1d.diagnostics", "compare_fields", "diagnostics.compare"),
    ("biphase1d.cli", "write_fields", "cli.write"),
    ("biphase1d.cli", "write_diagnostics", "cli.write"),
    ("biphase1d.cli", "_write_comparison", "cli.write"),
)

ROOT_SPAN = "pass"

# the per-layer times that partition a traced pass
SELF_TIMES = ("materials.busy_s", "stepping.assemble_s", "stepping.self_s",
              "tridiag.busy_s", "meso.self_s", "macro.self_s", "diagnostics.snapshot_s",
              "diagnostics.coarse_grain_s", "diagnostics.compare_s", "cli.write_s", "other_s")

# The end-to-end metric each per-layer metric should move, and on which
# workload; written down before any optimisation is measured against it.
LAYER_MOVES = {
    "materials.calls": "meso/macro cost per step on step_J1e3 (macro_ms_per_step, cell_steps_per_s)",
    "materials.busy_s": "macro_ms_per_step and cell_steps_per_s on step_J1e3 (about 20 % of step time)",
    "stepping.attempts": "macro_ms_per_step and cell_steps_per_s on step_J1e3",
    "stepping.halvings": "macro_ms_per_step and wall_s on step_J1e3 (its retry runs); no move on scale_J1e5",
    "stepping.assemble_s": "macro_ms_per_step and cell_steps_per_s on step_J1e3",
    "stepping.self_s": "macro_ms_per_step and cell_steps_per_s on step_J1e3 (about 30 % of step time)",
    "tridiag.calls": "cell_steps_per_s on scale_J1e5, less strongly on step_J1e3",
    "tridiag.busy_s": "cell_steps_per_s on scale_J1e5, less strongly on step_J1e3",
    "tridiag.us_per_call": "cell_steps_per_s on scale_J1e5, less strongly on step_J1e3",
    "meso.steps": "cell_steps_per_s (meso share) on step_J1e3 and scale_J1e5",
    "meso.self_s": "cell_steps_per_s (meso share) on step_J1e3 and scale_J1e5",
    "macro.steps": "macro_ms_per_step on every workload",
    "macro.self_s": "macro_ms_per_step on every workload",
    "macro.relax_retries": "macro_ms_per_step and wall_s on step_J1e3 (its retry runs); no move on scale_J1e5",
    "macro.useful_ratio": "macro_ms_per_step and wall_s on step_J1e3 (its retry runs); no move on scale_J1e5",
    "macro.clamp_events": "macro_ms_per_step and wall_s on step_J1e3 (its retry runs); no move on scale_J1e5",
    "macro.guard_events": "macro_ms_per_step and wall_s on step_J1e3 (its retry runs); no move on scale_J1e5",
    "diagnostics.snapshot_s": "wall_s on scale_J1e5; no move on step_J1e3",
    "diagnostics.coarse_grain_s": "wall_s on scale_J1e5; no move on step_J1e3",
    "diagnostics.compare_s": "wall_s on scale_J1e5; no move on step_J1e3",
    "cli.write_s": "wall_s on scale_J1e5",
    "cli.bytes_written": "wall_s on scale_J1e5",
    "other_s": "wall_s on every workload (time outside every span)",
    "traced_wall_s": "equals the sum of every self time above plus other_s",
    "trace_overhead_frac": "none: the cost of the spans themselves",
}


def _bind(module, attr, make_wrapper):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        raise AttributeError(f"{module}.{attr} is gone; update the benchmark's bindings")
    setattr(mod, attr, make_wrapper(getattr(mod, attr)))


@dataclass
class RunnerCall:
    """One call of run_meso or run_macro, as the untraced run sees it."""

    scheme: str
    seconds: float
    steps: int
    cells: int
    state: object
    records: list


class Watch:
    """Stopwatch around the scheme runners plus bare accepted-step counters."""

    def __init__(self):
        self.steps = {"meso": 0, "macro": 0}
        self.calls = []

    def install(self):
        for scheme in ("meso", "macro"):
            for module in ("biphase1d", "biphase1d.cli"):
                _bind(module, f"run_{scheme}", lambda fn, s=scheme: self._runner(s, fn))
            _bind(f"biphase1d.{scheme}", f"step_{scheme}",
                  lambda fn, s=scheme: self._counter(s, fn))

    def _runner(self, scheme, fn):
        def timed(config):
            steps0 = self.steps[scheme]
            t0 = time.perf_counter()
            state, records = fn(config)
            seconds = time.perf_counter() - t0
            self.calls.append(RunnerCall(scheme, seconds, self.steps[scheme] - steps0,
                                         config.cells, state, records))
            return state, records
        return timed

    def _counter(self, scheme, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.steps[scheme] += 1
            return out
        return counted

    def take(self):
        """The runner calls since the last take."""
        calls, self.calls = self.calls, []
        return calls


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, pass id]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = 0

    def install(self):
        for module, attr, name in SPAN_BINDINGS:
            _bind(module, attr, lambda fn, n=name: self.wrap(n, fn))

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.pass_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return spanned

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("# name start end parent pass\n")
            for name, start, end, parent, pass_id in self.spans:
                fh.write(f"{name} {start!r} {end!r} {parent} {pass_id}\n")


def layer_metrics(spans):
    """Per-pass means of the per-layer counts and times.

    A span's self time is its duration minus its direct children's
    durations; the root span's self time is ``other_s``, so every self
    time below plus ``other_s`` adds up to ``traced_wall_s``.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_t[span[3]] -= dur[i]

    count, self_s = {}, {}
    macro_attempts = 0
    for (name, _, _, parent, _), own in zip(spans, self_t):
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if (name == "stepping.lagrangian_step" and parent >= 0
                and spans[parent][0] == "macro.step"):
            macro_attempts += 1

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    passes = count.get(ROOT_SPAN, 0)
    if passes == 0:
        raise ValueError("no traced pass")
    attempts = count.get("stepping.lagrangian_step", 0)
    solves = count.get("tridiag.solve", 0)
    macro_steps = count.get("macro.step", 0)
    tridiag_s = self_s.get("tridiag.solve", 0.0)
    totals = {
        "materials.calls": layer_sum(count, "materials"),
        "materials.busy_s": layer_sum(self_s, "materials"),
        "stepping.attempts": attempts,
        "stepping.halvings": solves - attempts,
        "stepping.assemble_s": self_s.get("stepping.assemble", 0.0),
        "stepping.self_s": self_s.get("stepping.lagrangian_step", 0.0),
        "tridiag.calls": solves,
        "tridiag.busy_s": tridiag_s,
        "meso.steps": count.get("meso.step", 0),
        "meso.self_s": layer_sum(self_s, "meso"),
        "macro.steps": macro_steps,
        "macro.self_s": layer_sum(self_s, "macro"),
        "macro.relax_retries": macro_attempts - macro_steps,
        "diagnostics.snapshot_s": self_s.get("diagnostics.snapshot", 0.0),
        "diagnostics.coarse_grain_s": self_s.get("diagnostics.coarse_grain", 0.0),
        "diagnostics.compare_s": self_s.get("diagnostics.compare", 0.0),
        "cli.write_s": layer_sum(self_s, "cli"),
        "other_s": self_s[ROOT_SPAN],
        "traced_wall_s": sum(d for d, s in zip(dur, spans) if s[0] == ROOT_SPAN),
    }
    out = {k: v / passes for k, v in totals.items()}
    covered = sum(out[k] for k in SELF_TIMES)
    if abs(covered - out["traced_wall_s"]) > 1e-9 * out["traced_wall_s"]:
        raise ValueError(f"self times add up to {covered!r}, not the traced wall "
                         f"{out['traced_wall_s']!r}: spans do not nest")
    out["tridiag.us_per_call"] = 1e6 * tridiag_s / solves if solves else 0.0
    out["macro.useful_ratio"] = macro_steps / macro_attempts if macro_attempts else 0.0
    return out

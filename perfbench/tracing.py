"""Outside-in span tracing of holonewt's layers.

The program has no instrumentation of its own, so the traced pass
replaces each layer's public functions, as the calling module sees
them, with timing wrappers: the names bound in `holonewt.training`,
`holonewt.newton.solve`, the `holonewt.fdcheck` functions (and what
`verify_report` and the CLI call through module attributes), and the
entries of `holonewt.activations.ACTIVATIONS`.  Every wrapper records a
span; a span's self time is its duration minus the durations of the
spans it directly encloses, so the self times of all spans under one
root add up to the root's duration.

Spans are aggregated in memory per name (calls, self time, total time
and an optional size measure) and written out with the result file.
A name that a later refactor removes is listed as absent.
"""

import time
from dataclasses import dataclass

# module -> {attribute: span name}; a span name is "<layer>:<function>"
# and the layer (the part before the colon) is what metrics group on.
TARGETS = {
    "holonewt.training": {
        "train": "training:train",
        "forward": "network.forward:forward",
        "error_from_trace": "network.error:error_from_trace",
        "init_weights": "network.init:init_weights",
        "delta_output": "gradient:delta_output",
        "delta_hidden": "gradient:delta_hidden",
        "cogradient_conj": "gradient:cogradient_conj",
        "gd_update": "gradient:gd_update",
        "curvature_output": "newton.tables:curvature_output",
        "curvature_hidden": "newton.tables:curvature_hidden",
        "residual_curvature_output": "newton.tables:residual_curvature_output",
        "residual_curvature_hidden": "newton.tables:residual_curvature_hidden",
        "conj_curvature_output": "newton.tables:conj_curvature_output",
        "conj_curvature_hidden": "newton.tables:conj_curvature_hidden",
        "assemble_h_ww": "newton.assemble:assemble_h_ww",
        "assemble_h_wbar_w": "newton.assemble:assemble_h_wbar_w",
        "newton_update": "newton.update:newton_update",
        "pseudo_newton_update": "newton.update:pseudo_newton_update",
        "one_step_mu": "steplength.one_step_mu:one_step_mu",
        "apply_update": "steplength.apply_update:apply_update",
    },
    "holonewt.newton": {
        "solve": "linalg.solve:solve",
        # verify_report reaches these as attributes of the newton module
        "backward_tables": "newton.analytic:backward_tables",
        "hessian_pair": "newton.analytic:hessian_pair",
    },
    # verify_report imports cogradient_conj from here when it runs
    "holonewt.gradient": {"cogradient_conj": "gradient:cogradient_conj"},
    "holonewt.fdcheck": {
        "fd_cogradient": "fdcheck.cogradient:fd_cogradient",
        "fd_hessians": "fdcheck.hessians:fd_hessians",
        "fd_real_hessian": "fdcheck.real_hessian:fd_real_hessian",
        "real_quadratic_form": "fdcheck.other:real_quadratic_form",
        "relative_error": "fdcheck.other:relative_error",
    },
    "holonewt.cli": {
        "main": "cli:main",
        "verify_report": "fdcheck.report:verify_report",
        "init_weights": "network.init:init_weights",
        "load_dataset": "network.io:load_dataset",
    },
}


def _nbytes(args, result):
    return result.nbytes


def _dim(args, result):
    return args[0].shape[0]


# size measures recorded per call: bytes of an assembled Hessian block
# (from its shape) and the dimension of a solved system
MEASURES = {"newton.assemble": _nbytes, "linalg.solve": _dim}

OP_SPAN = "bench:op"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    measure: float = 0.0


class Tracer:
    """Installs the wrappers, aggregates spans, and restores the originals."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self._stack = []
        self._saved = []
        self._root_self = 0.0
        self.roots = 0
        self.root_s = 0.0
        self.worst_root_mismatch = 0.0

    def layer(self, prefix):
        """Summed stats over every span whose layer equals `prefix`."""
        out = SpanStats()
        for name, s in self.stats.items():
            if name.split(":")[0] == prefix:
                out.calls += s.calls
                out.self_s += s.self_s
                out.total_s += s.total_s
                out.measure += s.measure
        return out

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        measure = MEASURES.get(name.split(":")[0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - stack.pop()
                stats.calls += 1
                stats.self_s += own
                stats.total_s += duration
                self._root_self += own
                if stack:
                    stack[-1] += duration
                else:
                    self._close_root(duration)
            if measure is not None:
                stats.measure += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close_root(self, duration):
        mismatch = abs(self._root_self - duration) / duration if duration > 0 else 0.0
        self.worst_root_mismatch = max(self.worst_root_mismatch, mismatch)
        self.roots += 1
        self.root_s += duration
        self._root_self = 0.0

    def install(self):
        import importlib

        from holonewt.activations import ACTIVATIONS, Activation

        self.absent = []
        for modname, names in TARGETS.items():
            module = importlib.import_module(modname)
            for attr, span in names.items():
                if not hasattr(module, attr):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
        for key, act in list(ACTIVATIONS.items()):
            self._saved.append((ACTIVATIONS, key, act))
            ACTIVATIONS[key] = Activation(
                act.name,
                self.wrap(f"activations:{key}.f", act.f),
                self.wrap(f"activations:{key}.d1", act.d1),
                self.wrap(f"activations:{key}.d2", act.d2),
            )

    def uninstall(self):
        while self._saved:
            target, key, original = self._saved.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def op(self, fn):
        """`fn` as the root span of one benchmark operation."""
        return self.wrap(OP_SPAN, fn)

"""Outside-in tracing of qflatlab's layers.

The tracer wraps each layer's public functions (and a few hot methods) from
outside the package.  ``from .quadrature import integrate_radial`` binds the
name in the importing module at import time, so every module namespace of
the package that holds the original function object gets the wrapper, not
only the defining module.  Calls inside a module go through its globals and
are therefore traced as well.

Every wrapped call records a span: name, start, end and parent.  Spans are
kept in compact in-memory arrays and written once, when the run ends.  A
span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans named after it.
Counters (points evaluated, radii, calls) are taken at the same boundaries.
"""

import collections
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# Modules of the package, in the order their layers are reported.
LAYERS = ("quadrature", "fields", "expr", "calculus", "potential",
          "polynomials", "geometry", "fitting", "normality", "gallery", "cli")

# Methods traced in addition to module-level functions.
METHODS = {
    "fields": {"ScalarField": ("__call__",), "RadialProfile": ("__call__",)},
    "potential": {"PotentialEvaluator": ("__call__", "value_radial", "mass",
                                         "profile")},
    "polynomials": {"Polynomial": ("__add__", "__call__", "scale", "shift")},
}

# The stages of analyze_normality, keyed by the function the stage calls.
STAGES = {
    "total_mass_alpha": "alpha0",
    "volume_growth": "tau",
    "_completeness": "completeness",
    "normality_condition_a": "condition_a",
    "normality_condition_b": "condition_b",
    "normality_scalar_criterion": "scalar_criterion",
    "decompose": "decomposition",
    "cohn_vossen_check": "cohn_vossen",
    "diameter_estimate": "diameter",
    "volume_classification": "volume",
}


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder plus counters for one traced benchmark run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]
        self.counts = collections.Counter()
        self._patches = []
        self._clock = time.perf_counter
        self.stage_spans = {}

    # -- spans -------------------------------------------------------------

    def _sid(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _name(self, idx):
        return self.names[self.name_id[idx]] if idx >= 0 else None

    def parent_name(self):
        """Name of the innermost open span: the caller of a span being opened."""
        return self._name(self.stack[-1])

    def caller_name(self):
        """Name of the caller of the innermost open span."""
        idx = self.stack[-1]
        return self._name(self.parent[idx]) if idx >= 0 else None

    def call(self, name, fn, args, kwargs, count=None):
        """Run fn inside a span called name; count(args, kwargs, result)
        updates the counters inside the span."""
        sid = self._sid(name)
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1])
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self._clock())
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self.end[idx] = self._clock()
            self.stack.pop()

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, count=None, rename=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rename(tracer) if rename is not None else name
            return tracer.call(span, fn, args, kwargs, count)

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every layer in every namespace of
        the package that imported them."""
        pkg = importlib.import_module("qflatlab")
        mods = {m: importlib.import_module(f"qflatlab.{m}") for m in LAYERS}
        namespaces = [pkg, *mods.values()]
        counters = self._counters()
        stage_fns = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in STAGES:
                    continue
                if hasattr(obj, "cache_info"):
                    continue  # lru-cached table lookups stay untraced
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, counters.get(name))
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        if ns is mods["normality"] and attr in STAGES:
                            continue  # stage wrappers below
                        self._set(ns, attr, wrapper)
                if attr in STAGES:
                    stage_fns[attr] = obj
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._set(cls, meth, self._wrap(name, vars(cls)[meth],
                                                    counters.get(name)))
        # Stage spans: the calls analyze_normality makes through the
        # normality namespace.  The same functions reached from elsewhere
        # (cohn_vossen_check classifies the volume, for one) keep their
        # layer's own span name.
        normality = mods["normality"]
        for attr, stage in STAGES.items():
            fn = stage_fns.get(attr) or vars(normality)[attr]
            layer = fn.__module__.rsplit(".", 1)[1]
            plain = f"{layer}.{attr}"

            # the stage span keeps its function's layer for self time
            self.stage_spans[stage] = staged = f"{plain}:{stage}"

            def rename(tracer, staged=staged, plain=plain):
                if tracer.parent_name() == "normality.analyze_normality":
                    return staged
                return plain

            self._set(normality, attr,
                      self._wrap(plain, fn, counters.get(plain), rename=rename))
        # gallery builders live in a dispatch table
        gallery = mods["gallery"]
        builders = dict(gallery._BUILDERS)
        for key, fn in builders.items():
            gallery._BUILDERS[key] = self._wrap("gallery.build", fn)
        self._patches.append((gallery._BUILDERS, None, builders))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- counters ----------------------------------------------------------

    def _counters(self):
        c = self.counts

        def fixed_gl(args, kwargs, result):
            c["quadrature.points"] += int(_arg(args, kwargs, 3, "order", 32))

        sig = inspect.signature(importlib.import_module(
            "qflatlab.quadrature").adaptive_estimate)

        def adaptive_estimate(args, kwargs, result):
            c["quadrature.adaptive.calls"] += 1
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            val, err = result
            target = max(bound.arguments["abs_tol"],
                         bound.arguments["rel_tol"] * abs(val))
            if err > target and err > 1e-300:
                c["quadrature.adaptive.unconverged"] += 1

        def decade_block(args, kwargs, result):
            if self.caller_name() == "quadrature.decade_mass_integral":
                c["quadrature.decade_mass.decades"] += 1

        def field_eval(args, kwargs, result):
            c["fields.eval.calls"] += 1
            x = np.asarray(args[1])
            c["fields.eval.points"] += 1 if x.ndim == 1 else int(x.shape[0])

        def profile_eval(args, kwargs, result):
            c["fields.profile.points"] += int(np.size(args[1]))

        def radial_jet(args, kwargs, result):
            r = np.atleast_1d(np.asarray(args[1], dtype=float))
            c["calculus.radial_jet.calls"] += 1
            c["calculus.radial_jet.points"] += int(r.size)
            c["calculus.radial_jet.distinct"] += int(np.unique(r).size)

        def angular_kernel(args, kwargs, result):
            c["potential.angular_kernel.calls"] += 1
            c["potential.angular_kernel.points"] += int(np.size(result))

        def poly_eval(args, kwargs, result):
            x = np.asarray(args[1])
            c["polynomials.eval.points"] += 1 if x.ndim == 1 else int(x.shape[0])

        def calls(key):
            def count(args, kwargs, result):
                c[key] += 1
            return count

        return {
            "quadrature.fixed_gl": fixed_gl,
            "quadrature.adaptive_estimate": adaptive_estimate,
            "quadrature.decade_mass_integral": calls("quadrature.decade_mass.calls"),
            "quadrature.integrate_radial_estimate": decade_block,
            "quadrature.integrate_radial": decade_block,
            "quadrature.log_condensation_blocks": calls("quadrature.log_blocks.calls"),
            "fields.ScalarField.__call__": field_eval,
            "fields.RadialProfile.__call__": profile_eval,
            "expr.evaluate": calls("expr.evaluate.calls"),
            "calculus.radial_jet": radial_jet,
            "potential.PotentialEvaluator.value_radial":
                lambda a, k, r: c.update({"potential.value_radial.radii": len(r)}),
            "potential.angular_log_kernel": angular_kernel,
            "potential.PotentialEvaluator.mass": calls("potential.mass.calls"),
            "polynomials.Polynomial.__add__": calls("polynomials.add.calls"),
            "polynomials.Polynomial.__call__": poly_eval,
            "polynomials.ph_dimension": calls("polynomials.ph_dimension.calls"),
            "geometry.conformal_volume": calls("geometry.conformal_volume.calls"),
            "geometry.classify_ray": calls("geometry.classify_ray.calls"),
        }

    # -- results -----------------------------------------------------------

    def span_arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.span_arrays())

    def layer_metrics(self):
        """Per-layer metrics: counters, self times, stage times and errors."""
        s = self.span_arrays()
        names = self.names
        dur = s["end"] - s["start"]
        parent = s["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        layer_of = np.array([n.split(".", 1)[0] for n in names] or [""], dtype=object)
        span_layer = layer_of[s["name_id"]] if len(dur) else np.array([], dtype=object)
        out = {}
        c = self.counts
        for key in ("quadrature.points", "quadrature.adaptive.calls",
                    "quadrature.adaptive.unconverged", "quadrature.decade_mass.calls",
                    "quadrature.decade_mass.decades", "quadrature.log_blocks.calls",
                    "fields.eval.calls", "fields.eval.points", "fields.profile.points",
                    "expr.evaluate.calls", "calculus.radial_jet.calls",
                    "calculus.radial_jet.points", "potential.value_radial.radii",
                    "potential.angular_kernel.calls", "potential.angular_kernel.points",
                    "potential.mass.calls", "polynomials.add.calls",
                    "polynomials.eval.points", "polynomials.ph_dimension.calls",
                    "geometry.conformal_volume.calls", "geometry.classify_ray.calls"):
            out[key] = int(c[key])
        pts = c["calculus.radial_jet.points"]
        out["calculus.radial_jet.distinct_ratio"] = (
            c["calculus.radial_jet.distinct"] / pts if pts else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())

        def spans_named(name, parents=None):
            sid = self._ids.get(name)
            if sid is None:
                return np.zeros(len(dur), dtype=bool)
            mask = s["name_id"] == sid
            if parents is not None:
                pids = [self._ids[p] for p in parents if p in self._ids]
                par_ok = np.isin(s["name_id"][np.maximum(parent, 0)], pids) & has_parent
                mask &= par_ok
            return mask

        # errors: raised out of the outermost geometry call
        geo = span_layer == "geometry"
        outer = geo & ~(has_parent & (span_layer[np.maximum(parent, 0)] == "geometry"))
        out["geometry.errors"] = int(np.sum(s["raised"][outer]))
        for stage in STAGES.values():
            mask = spans_named(self.stage_spans.get(stage, ""))
            out[f"normality.{stage}.s"] = float(dur[mask].sum())
            out[f"normality.{stage}.errors"] = int(np.sum(s["raised"][mask]))
        builds = spans_named("gallery.build")
        out["gallery.build.calls"] = int(builds.sum())
        out["gallery.build.s"] = float(dur[builds].sum())
        cli_spans = ("cli.run_analysis", "cli.sweep_csv")
        context = (spans_named("cli.context_from_document")
                   | spans_named("gallery.gallery", parents=("cli.sweep_csv",)))
        out["cli.context.s"] = float(dur[context].sum())
        out["cli.report.s"] = float(
            dur[spans_named("normality.analyze_normality", parents=cli_spans)].sum())
        out["trace.spans"] = int(len(dur))
        return out


def counts_only(metrics):
    """The deterministic part of a traced run: every metric that is not a
    time."""
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))}

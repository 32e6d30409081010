"""Layer tracing from outside the package.

The package has no tracing of its own, so the benchmark wraps the public
functions of each module.  Modules import names with ``from ... import``,
so one function can be bound in several modules (``chain.f_chain_eval``
and ``geometry.f_chain_eval``, ``chain._gram_schmidt`` and
``reconstruct._gram_schmidt``); `Tracer.install` replaces every binding
of the original object in every loaded ``holosphere`` module and
`Tracer.uninstall` puts the originals back, so traced and untraced
passes can alternate in one process.

A span wrapper adds its duration to its parent span's child time, so a
layer's self time is its duration minus the time its child spans cover.
Spans are aggregated per name as they close; nothing per call is kept.
"""

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bound(fn, args, kwargs):
    """The call's arguments by name, defaults included."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; `before(args, kwargs)` and
        `after(args, kwargs, result)` update counters."""
        stack, self_s, counts = self._stack, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                counts[name + ".calls"] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, before):
        """Wrap fn without a span: its time stays in the caller's span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return before(fn, args, kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind(self, module, attr, make):
        """Replace `module.attr` and every other binding of the same
        object in the loaded holosphere modules."""
        orig = getattr(module, attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "holosphere" or name.startswith("holosphere.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def span(self, module, attr, name, before=None, after=None):
        self._rebind(module, attr, lambda fn: self._span(name, fn, before, after))

    def install(self):
        from holosphere import (
            applications, chain, cli, config, expr, fd, geometry, meshio,
            quadrature, reconstruct,
        )

        counts = self.counts

        def add(key, value=1):
            counts[key] += value

        def points(args, kwargs):
            add("chain.f_chain_eval.points", np.size(_arg(args, kwargs, 1, "zs")))

        def file_bytes(key):
            def after(args, kwargs, result):
                add(key, os.path.getsize(_arg(args, kwargs, 1, "path")))
            return after

        self.span(chain, "f_chain_eval", "chain.f_chain_eval", before=points)
        self._method(chain.AlphaChain, "jets_at",
                     lambda fn: self._span("chain.jets_at", fn))
        self.span(chain, "_gram_schmidt", "chain.gram_schmidt")
        self.span(chain, "scan_grid", "chain.scan_grid")
        self.span(chain, "build_alpha_chain", "chain.build_alpha_chain")
        self.span(chain, "recursion_crosscheck", "chain.recursion_crosscheck")

        self.span(expr, "eval_expr", "expr.eval_expr")
        self.span(quadrature, "integrate_segment", "quadrature.integrate_segment")

        def panel(fn, args, kwargs):
            add("quadrature.panels")
            return fn(*args, **kwargs)

        self._rebind(quadrature, "integrate_interval",
                     lambda fn: self._counter(fn, panel))

        def quad_value(fn, args, kwargs):
            anti, z = args[0], args[1]
            add("expr.antiderivative.hits" if z in anti._cache
                else "expr.antiderivative.cache_entries")
            return fn(*args, **kwargs)

        self._method(expr.Antiderivative, "_quad_value",
                     lambda fn: self._counter(fn, quad_value))

        self.span(fd, "wirtinger", "fd.wirtinger")

        def mixed_partials(fn, args, kwargs):
            f, rest = args[0], args[1:]

            def counted(pts):
                add("fd.wirtinger.stencil_points", np.size(pts))
                return f(pts)

            return fn(counted, *rest, **kwargs)

        self._rebind(fd, "_mixed_partials",
                     lambda fn: self._counter(fn, mixed_partials))

        self.span(geometry, "verify_all", "geometry.verify_all")
        self.span(geometry, "minimality_residual", "geometry.minimality_residual")
        self.span(geometry, "calabi_check", "geometry.calabi_check")

        def evaluator_points(fn, args, kwargs):
            add("geometry.surface_evaluator.points", np.size(args[1]))
            return fn(*args, **kwargs)

        self._method(geometry.SurfaceEvaluator, "__call__",
                     lambda fn: self._counter(fn, evaluator_points))

        self.span(applications, "kaehler_point", "applications.kaehler_point")
        self.span(applications, "kaehler_immersion_check",
                  "applications.kaehler_immersion_check")
        self.span(applications, "ruled_minimality_probe",
                  "applications.ruled_minimality_probe")

        def ruled_calls(fn, args, kwargs):
            add("applications.ruled_point.calls")
            return fn(*args, **kwargs)

        self._rebind(applications, "ruled_point",
                     lambda fn: self._counter(fn, ruled_calls))

        def probe_points(args, kwargs):
            bound = _bound(reconstruct.probe_termination, args, kwargs)
            add("reconstruct.sampled_points", bound["samples"] ** 2)

        def xi_points(args, kwargs):
            bound = _bound(reconstruct.sample_xi, args, kwargs)
            add("reconstruct.sampled_points", bound["rows"] * bound["cols"])

        self.span(reconstruct, "probe_termination", "reconstruct.probe_termination",
                  before=probe_points)
        self.span(reconstruct, "sample_xi", "reconstruct.sample_xi", before=xi_points)
        self._method(reconstruct.XiField, "__init__",
                     lambda fn: self._span("reconstruct.xi_fit", fn))
        self._method(reconstruct.XiField, "jet",
                     lambda fn: self._span("reconstruct.xi_jet", fn))
        self.span(reconstruct, "roundtrip", "reconstruct.roundtrip")

        self.span(meshio, "mesh_from_grid", "meshio.mesh_from_grid")
        for writer in ("write_obj", "write_surface_csv", "write_ply"):
            self.span(meshio, writer, f"meshio.{writer}",
                      after=file_bytes("meshio.bytes_written"))

        self.span(cli, "main", "cli.main")
        self.span(config, "validate_config", "config.validate_config")

        def json_bytes(fn, args, kwargs):
            result = fn(*args, **kwargs)
            add("cli.json_bytes", os.path.getsize(args[0]))
            return result

        self._rebind(cli, "_write_json", lambda fn: self._counter(fn, json_bytes))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

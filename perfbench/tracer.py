"""Spans around the calls into each layer of ``landau_drive``.

The package is not edited.  Its modules import functions by name (``cli``
and ``oracle`` hold their own ``assemble``, ``propagator`` its own
``build_drive_path``), so a wrapper goes on the name in every module that
binds it; ``field`` is a method and is wrapped on each waveform class.
Spans stay in memory and are written out once, when the traced pass ends.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import warnings
from contextlib import contextmanager

from landau_drive import (
    cli,
    field_model,
    fock_algebra,
    oracle,
    path_integrals,
    propagator,
)
from landau_drive.field_model import FieldWaveform

#: Public functions timed per layer.  A span is named "<layer>.<function>".
LAYER_FUNCTIONS = {
    cli: ("load_config", "resolve_config", "run_simulate", "run_sweep",
          "run_validate", "run_phases"),
    path_integrals: ("build_drive_path",),
    fock_algebra: ("displacement_matrix",),
    propagator: ("assemble", "transition_probabilities", "displacement_argument"),
    oracle: ("integrate_schrodinger", "heisenberg_residual",
             "guiding_center_residual", "run_validation"),
    field_model: ("internalize",),
}
CALLING_MODULES = (cli, field_model, fock_algebra, oracle, path_integrals, propagator)

_INTERNALIZE = field_model.internalize


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _drive_path_attrs(site, args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 2, "t_grid")), "route": result.provenance}


def _displacement_attrs(site, args, kwargs, result):
    return {"dim": result.dim, "site": site}


def _integrator_attrs(site, args, kwargs, result):
    """Scheme, dimension and fixed-step count, as the integrator splits
    [0, t] at waveform kinks and steps each span at most dt wide."""
    system, waveform, t_final, cfg = (_arg(args, kwargs, i, n) for i, n in
                                      enumerate(("sys", "w", "t_final", "cfg")))
    w_i, scales, _ = _INTERNALIZE(system, waveform)
    t_i = t_final / scales.time
    edges = [0.0, *sorted(p for p in w_i.breakpoints() if 0.0 < p < t_i), t_i]
    steps = sum(max(1, math.ceil((hi - lo) / cfg.dt)) for lo, hi in zip(edges, edges[1:]))
    return {"scheme": cfg.scheme, "dim": cfg.dim, "steps": steps}


_ANNOTATE = {
    "path_integrals.build_drive_path": _drive_path_attrs,
    "fock_algebra.displacement_matrix": _displacement_attrs,
    "oracle.integrate_schrodinger": _integrator_attrs,
}
#: Spans that count the warnings raised inside them; displacement_matrix
#: raises only TruncationWarning.
_COUNT_WARNINGS = {"fock_algebra.displacement_matrix"}


class Tracer:
    """Records (id, parent, call, name, start, end, attrs) spans.

    ``call`` is the id of the CLI call the span belongs to; attributes are
    computed after the span's end time is taken.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.call = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    @contextmanager
    def root(self, name: str, call: int, attrs: dict):
        """Root span of one CLI call; ``attrs`` may be filled in by the caller."""
        self.call = call
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, call, name, start, end, attrs))

    def _wrap(self, fn, name: str, site: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        annotate = _ANNOTATE.get(name)
        count_warnings = name in _COUNT_WARNINGS

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = clock()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                attrs = None
                if result is not None and annotate is not None:
                    attrs = annotate(site, args, kwargs, result)
                if count_warnings:
                    attrs = dict(attrs or {}, warnings=len(caught))
                spans.append((sid, parent, self.call, name, start, end, attrs))
            if count_warnings:
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return traced

    def install(self) -> None:
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(layer, fname)
                span = f"{_layer(layer)}.{fname}"
                for module in CALLING_MODULES:
                    if vars(module).get(fname) is original:
                        self._patch(module, fname, self._wrap(original, span, _layer(module)))
        for cls in vars(field_model).values():
            if isinstance(cls, type) and issubclass(cls, FieldWaveform) and "field" in vars(cls):
                self._patch(cls, "field", self._wrap(cls.field, "field_model.field", "field_model"))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per line: id, parent, call, name, start, end[, attrs]."""
        with open(path, "w") as fh:
            for sid, parent, call, name, start, end, attrs in self.spans:
                row = [sid, parent, call, name, start, end]
                if attrs:
                    row.append(attrs)
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

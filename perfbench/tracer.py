"""Run one bellsim CLI job with a timer around each traced public function.

    python perfbench/tracer.py SPANS.json -- run --state two_photon ...

Imports bellsim.cli from PYTHONPATH, replaces every traced function with a
timing wrapper in every bellsim module namespace that holds a reference to
it (``apply_passive`` is bound by name in detection and gaussian, for
instance), then calls ``bellsim.cli.main`` with the remaining arguments and
exits with its code. Spans stay in memory and are written to SPANS.json
at exit: [id, name, parent id, start, end, counts]. A span's parent is the
innermost traced call open on the same thread; work that map_ordered
hands to its pool threads gets the map_ordered span as its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# span name -> (module, attribute)
TARGETS = {
    "linear_optics.apply_passive": ("bellsim.linear_optics", "apply_passive"),
    "linear_optics.apply_single_mode_squeeze": ("bellsim.linear_optics", "apply_single_mode_squeeze"),
    "fock.enumerate_basis": ("bellsim.fock", "enumerate_basis"),
    "fock.synthesize_coherent": ("bellsim.fock", "synthesize_coherent"),
    "detection.angle_scan": ("bellsim.detection", "angle_scan"),
    "detection.ch_functional": ("bellsim.detection", "ch_functional"),
    "detection.coincidence_probability": ("bellsim.detection", "coincidence_probability"),
    "detection.assemble_report": ("bellsim.detection", "assemble_report"),
    "detection.scan_angle_tables": ("bellsim.detection", "scan_angle_tables"),
    "gaussian.fock_equivalent_state": ("bellsim.gaussian", "fock_equivalent_state"),
    "gaussian.build_squeezed_thermal": ("bellsim.gaussian", "build_squeezed_thermal"),
    "gaussian.gaussian_ch": ("bellsim.gaussian", "gaussian_ch"),
    "gaussian.variance_matrix": ("bellsim.gaussian", "variance_matrix"),
    "gaussian.scan_tables": ("bellsim.gaussian", "scan_tables"),
    "gaussian.sweep_rows": ("bellsim.gaussian", "sweep_rows"),
    "coherent.classical_nonviolation_suite": ("bellsim.coherent", "classical_nonviolation_suite"),
    "coherent.mixture_ch": ("bellsim.coherent", "mixture_ch"),
    "coherent.coherent_ch": ("bellsim.coherent", "coherent_ch"),
    "coherent.scan_tables": ("bellsim.coherent", "scan_tables"),
    "cli.run_validation": ("bellsim.cli", "run_validation"),
    "cli.build_state": ("bellsim.cli", "build_state"),
    # the simplex polish: detection calls scipy.optimize.minimize
    "detection.refine": ("scipy.optimize", "minimize"),
    "concurrency.map_ordered": ("bellsim._concurrency", "map_ordered"),
}


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()

    def stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def enter(self):
        with self._lock:
            sid = self._next
            self._next += 1
        stack = self.stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def leave(self, sid, name, parent, start, counts):
        end = time.perf_counter()
        self.stack().pop()
        with self._lock:
            self.spans.append([sid, name, parent, start, end, counts])

    def wrap(self, name, fn):
        """Time each call of fn as a span called name."""
        if name == "concurrency.map_ordered":
            return self._wrap_map(name, fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid, parent = self.enter()
            start = time.perf_counter()
            counts = {}
            try:
                result = fn(*args, **kwargs)
                if name == "detection.refine":
                    counts["nfev"] = int(getattr(result, "nfev", 0))
                return result
            finally:
                self.leave(sid, name, parent, start, counts)

        return timed

    def _wrap_map(self, name, fn):
        @functools.wraps(fn)
        def timed(work, items):
            items = list(items)
            sid, parent = self.enter()

            def in_span(item):
                stack = self.stack()
                saved = stack[:]
                stack[:] = [sid]
                try:
                    return work(item)
                finally:
                    stack[:] = saved

            start = time.perf_counter()
            try:
                return fn(in_span, items)
            finally:
                self.leave(sid, name, parent, start, {"items": len(items)})

        return timed


def install(recorder):
    """Wrap every target; returns {span name: namespaces patched}."""
    patched = {}
    for name, (module_name, attr) in TARGETS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            patched[name] = 0
            continue
        original = getattr(module, attr, None)
        if original is None:
            patched[name] = 0
            continue
        wrapped = recorder.wrap(name, original)
        namespaces = [module] + [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "bellsim" or key.startswith("bellsim."))
        ]
        count = 0
        for namespace in {id(m): m for m in namespaces}.values():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
                    count += 1
        patched[name] = count

    cli = sys.modules["bellsim.cli"]
    load = cli.ExperimentConfig.__dict__["load"]
    cli.ExperimentConfig.load = classmethod(recorder.wrap("cli.ExperimentConfig.load", load.__func__))
    patched["cli.ExperimentConfig.load"] = 1
    return patched


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- CLI ARGS...")
    out, cli_args = sys.argv[1], sys.argv[3:]
    import bellsim.cli

    recorder = Recorder()
    patched = install(recorder)
    main_fn = recorder.wrap("cli.main", bellsim.cli.main)
    code = 1
    try:
        code = main_fn(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "patched": patched}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics from the span files the traced jobs write.

For each span name: ``calls`` is the number of spans, ``s`` the summed
span durations (inclusive time; spans on pool threads overlap, so this is
busy time, not wall time), and ``self_s`` the summed durations minus the
part of each span covered by its child spans. Counters recorded on a span
(``nfev``, ``items``) are summed. Counts come from the first traced round
and must repeat in every other one; times are medians over rounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

# metric name -> (span name, field)
LAYERS = {
    "linear_optics.apply_passive.calls": ("linear_optics.apply_passive", "calls"),
    "linear_optics.apply_passive.s": ("linear_optics.apply_passive", "s"),
    "linear_optics.apply_passive.self_s": ("linear_optics.apply_passive", "self_s"),
    "linear_optics.apply_single_mode_squeeze.s": ("linear_optics.apply_single_mode_squeeze", "s"),
    "gaussian.fock_equivalent_state.s": ("gaussian.fock_equivalent_state", "s"),
    "fock.enumerate_basis.calls": ("fock.enumerate_basis", "calls"),
    "fock.enumerate_basis.s": ("fock.enumerate_basis", "s"),
    "fock.synthesize_coherent.s": ("fock.synthesize_coherent", "s"),
    "detection.angle_scan.s": ("detection.angle_scan", "s"),
    "detection.ch_functional.calls": ("detection.ch_functional", "calls"),
    "detection.ch_functional.s": ("detection.ch_functional", "s"),
    "detection.coincidence_probability.calls": ("detection.coincidence_probability", "calls"),
    "detection.coincidence_probability.s": ("detection.coincidence_probability", "s"),
    "detection.assemble_report.calls": ("detection.assemble_report", "calls"),
    "detection.assemble_report.self_s": ("detection.assemble_report", "self_s"),
    "detection.scan_angle_tables.s": ("detection.scan_angle_tables", "s"),
    "detection.refine.s": ("detection.refine", "s"),
    "detection.refine.nfev": ("detection.refine", "nfev"),
    "gaussian.build_squeezed_thermal.calls": ("gaussian.build_squeezed_thermal", "calls"),
    "gaussian.build_squeezed_thermal.s": ("gaussian.build_squeezed_thermal", "s"),
    "gaussian.gaussian_ch.calls": ("gaussian.gaussian_ch", "calls"),
    "gaussian.gaussian_ch.s": ("gaussian.gaussian_ch", "s"),
    "gaussian.variance_matrix.calls": ("gaussian.variance_matrix", "calls"),
    "gaussian.scan_tables.s": ("gaussian.scan_tables", "s"),
    "gaussian.sweep_rows.s": ("gaussian.sweep_rows", "s"),
    "coherent.classical_nonviolation_suite.s": ("coherent.classical_nonviolation_suite", "s"),
    "coherent.mixture_ch.calls": ("coherent.mixture_ch", "calls"),
    "coherent.mixture_ch.s": ("coherent.mixture_ch", "s"),
    "coherent.coherent_ch.calls": ("coherent.coherent_ch", "calls"),
    "coherent.scan_tables.s": ("coherent.scan_tables", "s"),
    "cli.run_validation.s": ("cli.run_validation", "s"),
    "concurrency.map_ordered.calls": ("concurrency.map_ordered", "calls"),
    "concurrency.map_ordered.items": ("concurrency.map_ordered", "items"),
    "concurrency.map_ordered.s": ("concurrency.map_ordered", "s"),
    "cli.ExperimentConfig.load.s": ("cli.ExperimentConfig.load", "s"),
    "cli.build_state.s": ("cli.build_state", "s"),
    "cli.main.s": ("cli.main", "s"),
}

COUNT_FIELDS = ("calls", "nfev", "items")


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_stats(spans):
    """{span name: {calls, s, self_s, nfev, items}} for one process."""
    children = defaultdict(list)
    for _sid, _name, parent, start, end, _counts in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: defaultdict(float))
    for sid, name, _parent, start, end, counts in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _covered(children[sid], start, end)
        for key, value in counts.items():
            entry[key] += value
    return stats


def layer_metrics(rounds):
    """Per-layer metrics over traced rounds; each round is a list of span files.

    Returns ({metric: (value, unit)}, per-round totals by span name).
    """
    totals = []
    for files in rounds:
        merged = defaultdict(lambda: defaultdict(float))
        for path in files:
            if not path.exists():
                continue
            spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
            for name, entry in span_stats(spans).items():
                for key, value in entry.items():
                    merged[name][key] += value
        totals.append({name: dict(entry) for name, entry in merged.items()})

    metrics = {}
    for metric, (span, field) in LAYERS.items():
        values = [round_.get(span, {}).get(field, 0.0) for round_ in totals]
        if field in COUNT_FIELDS:
            if len(set(values)) > 1:
                print(f"warning: {metric} differs between traced rounds: {values}",
                      file=sys.stderr)
            metrics[metric] = (int(values[0]), "count")
        else:
            metrics[metric] = (statistics.median(values), "s")
    return metrics, totals

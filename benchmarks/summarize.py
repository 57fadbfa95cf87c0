"""Self time per layer from a span tree, and the per-layer metrics.

A span's self time is its duration minus the part of its interval that its
child spans cover. Run as a script on a trace dump to print, per layer, the
median self and total time per timed step:

    python3 benchmarks/summarize.py .bench_build/traces/pretrain-paper-seed0.json
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def self_times(spans) -> list[float]:
    """Self time of each span; a span is ``(name, start, end, parent, ...)``
    with ``parent`` the index of its parent span or None."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def per_step(spans, steps) -> tuple[dict, dict]:
    """Per step in ``steps``: {name: total duration} and {name: self time}."""
    wanted = set(steps)
    total = {k: defaultdict(float) for k in steps}
    own = {k: defaultdict(float) for k in steps}
    for s, self_s in zip(spans, self_times(spans)):
        if s[4] in wanted:
            total[s[4]][s[0]] += s[2] - s[1]
            own[s[4]][s[0]] += self_s
    return total, own


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, counts: dict, steps: list[int], rounds: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, as medians over its timed steps.

    Span names map to ``<name>_s``; a counter named in ``RATIOS`` becomes a
    ratio over all timed steps. Events that do not happen every step
    (checkpoint saves, held-out evaluation) are medians per event.
    """
    total, own = per_step(spans, steps)
    names = {s[0] for s in spans}
    keys = {key for k in steps for key in counts.get(k, {})}
    out = {}
    for name in names - EVENTS:
        out[f"{name}_s"] = _median(total[k].get(name, 0.0) for k in steps)
    for key in keys:
        out[key] = _median(counts.get(k, {}).get(key, 0.0) for k in steps)
    out["train.step_self_s"] = _median(own[k].get("train.step", 0.0) for k in steps)
    out["model.forward_self_s"] = _median(own[k].get("model.forward", 0.0) for k in steps)
    op_s = [sum(v for key, v in counts.get(k, {}).items()
                if key.startswith("autodiff.bwd_self_s.")) for k in steps]
    out["autodiff.bwd_engine_s"] = _median(
        total[k].get("autodiff.backward", 0.0) - s for k, s in zip(steps, op_s))
    for metric, (num, den) in RATIOS.items():
        n = sum(counts.get(k, {}).get(num, 0.0) for k in steps)
        d = sum(counts.get(k, {}).get(den, 0.0) for k in steps)
        out[metric] = n / d if d else 0.0
    for name in EVENTS:
        out[f"{name}_s"] = _median(s[2] - s[1] for s in spans if s[0] == name)
    saves = sum(c.get("checkpoint.saves", 0.0) for c in counts.values())
    written = sum(c.get("checkpoint.bytes", 0.0) for c in counts.values())
    out["checkpoint.saves_per_run"] = saves / rounds if rounds else 0.0
    out["checkpoint.bytes"] = written / saves if saves else 0.0
    out["train.timed_steps"] = float(len(steps))
    return out


# Counters kept as ratios of totals rather than per-step medians.
RATIOS = {
    "views.empty_query_frac": ("views.empty_queries", "views.queries"),
    "objectives.omega_frac": ("objectives.omega", "objectives.query_patches"),
}
# Spans that do not run every step; reported as a median per call.
EVENTS = {"checkpoint.save", "segmenter.eval", "segmenter.eval_train"}


def main(path) -> None:
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    spans = [(s["name"], s["start"], s["end"], s["parent"], s["step"]) for s in trace["spans"]]
    steps = trace["timed_steps"]
    total, own = per_step(spans, steps)
    names = sorted({s[0] for s in spans}, key=lambda n: -_median(own[k].get(n, 0.0) for k in steps))
    print(f"{'layer':32s} {'self_ms':>9s} {'total_ms':>9s}   (median per step, {len(steps)} steps)")
    for n in names:
        print(f"{n:32s} {1e3 * _median(own[k].get(n, 0.0) for k in steps):9.3f} "
              f"{1e3 * _median(total[k].get(n, 0.0) for k in steps):9.3f}")


if __name__ == "__main__":
    main(sys.argv[1])

"""Hooks the benchmark installs around calls into the patchpos modules.

No file of the library changes: every hook replaces a module or class
attribute for the duration of one training round and restores it after.
A hook is installed where the call is made, so ``patchpos.model.patchify``
is wrapped rather than ``patchpos.views.patchify``, because ``model``
imported the name.

Two kinds of hook exist:

* the step clock (always on): timestamps the end of each ``AdamW.step``;
  on finetuning it times the held-out ``evaluate()`` passes and records the
  training loss, and on untraced pretraining rounds it runs one held-out
  pass after each epoch-end checkpoint; the timestamps cost a few
  microseconds per step;
* the tracer (traced rounds only): records a span around each layer call,
  counters at the same boundaries, and the backward time of every tape op.
"""
from __future__ import annotations

import functools
import io
import math
import os
import time
from collections import defaultdict

from patchpos import autodiff, data, encoder, groups, model, objectives, optim, segmenter, train

now = time.perf_counter


class Patches:
    """Attribute replacements undone, in reverse order, on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(current value)``."""
        old = vars(owner)[attr]
        self._saved.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()


class Tracer:
    """Spans and counters kept in memory for one run.

    A span is ``[name, start, end, parent, step]``; ``parent`` indexes
    ``spans`` (None at the top) and ``step`` is the traced step the span ran
    in. Each timed step gets a synthetic ``train.step`` span from the previous
    step's end to its own, and the top-level spans of that step become its
    children, so the step's self time is the loop's own work.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.timed_steps: list[int] = []
        self.rounds = 0
        self.step = 0
        self.decoder_layer = 0      # index of the next decoder conv in a call
        self._stack: list[int] = []
        self._roots: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), None, parent, self.step])
        if parent is None:
            self._roots.append(i)
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = now()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.step][key] += value

    def tick(self, prev_end: float | None, end: float) -> None:
        """Close the current step; ``prev_end`` is None for a warm-up step."""
        if prev_end is not None:
            i = len(self.spans)
            self.spans.append(["train.step", prev_end, end, None, self.step])
            for r in self._roots:
                self.spans[r][3] = i
            self.timed_steps.append(self.step)
        self._roots = []
        self.step += 1

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "step": k}
                      for n, s, e, p, k in self.spans],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
            "timed_steps": self.timed_steps,
            "rounds": self.rounds,
        }


class StepClock:
    """Step boundaries of one round, from the end of each ``AdamW.step``.

    ``durations`` holds every step after the round's warm-up step, minus the
    held-out evaluation time that fell inside it. ``eval_at`` holds the start
    of each held-out pass.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.log = io.StringIO()    # the entry point's log_stream
        self.start = now()
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.losses: list[float] = []
        self.eval_s: list[float] = []
        self.eval_at: list[float] = []
        self.eval_miou: list[float | None] = []
        self.held_out: list[float] = []
        self._excluded = 0.0
        self._evaluated_step: int | None = None

    def install(self, p: Patches, held_out: int | None = None) -> None:
        p.wrap(optim.AdamW, "step", self._wrap_step)
        if held_out is not None:
            p.wrap(segmenter, "evaluate", functools.partial(self._wrap_evaluate, held_out))
            p.wrap(segmenter, "pixel_cross_entropy", self._wrap_loss)

    def install_held_out(self, p: Patches, evaluate) -> None:
        """Pretraining: after each epoch-end checkpoint, one held-out pass
        ``evaluate(model, k)`` (k counts the round's passes) that returns a
        loss. Spread over the round like this, the passes see the same load
        as the steps around them."""
        p.wrap(train, "save_run_checkpoint", functools.partial(self._wrap_save, evaluate))

    def _wrap_save(self, evaluate, fn):
        @functools.wraps(fn)
        def save(path, model_, opt, global_step, *args, **kwargs):
            out = fn(path, model_, opt, global_step, *args, **kwargs)
            if global_step != self._evaluated_step:     # the final save repeats the last
                self._evaluated_step = global_step
                t = now()
                self.held_out.append(evaluate(model_, len(self.held_out)))
                dt = now() - t
                self.eval_at.append(t)
                self.eval_s.append(dt)
                self._excluded += dt
            return out
        return save

    def _wrap_step(self, fn):
        @functools.wraps(fn)
        def step(opt, *args, **kwargs):
            out = fn(opt, *args, **kwargs)
            t = now()
            prev = self.ends[-1] if self.ends else None
            if prev is not None:
                self.durations.append(t - prev - self._excluded)
            if self.tracer is not None:
                self.tracer.tick(prev, t)
            self.ends.append(t)
            self._excluded = 0.0
            return out
        return step

    def _wrap_evaluate(self, held_out, fn):
        @functools.wraps(fn)
        def evaluate(model_, images, *args, **kwargs):
            t = now()
            out = fn(model_, images, *args, **kwargs)
            dt = now() - t
            self._excluded += dt
            if len(images) == held_out:
                self.eval_at.append(t)
                self.eval_s.append(dt)
                self.eval_miou.append(out[1])
            return out
        return evaluate

    def _wrap_loss(self, fn):
        @functools.wraps(fn)
        def loss(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.losses.append(float(out.data))
            return out
        return loss


# -- tracing ------------------------------------------------------------------

def _span(tracer: Tracer, name, after=None):
    """Wrapper factory: one span per call; ``name`` may be a callable of the
    call's arguments; ``after(args, result)`` records counters."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if after is not None:
                after(args, out)
            return out
        return wrapper
    return make


def _tape(root) -> list:
    """Every node reachable from ``root``: the tape its forward pass recorded,
    constants included."""
    seen = {id(root)}
    stack, nodes = [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def _timed_op(tracer: Tracer, key: str, fn):
    def backward(g):
        t = now()
        out = fn(g)
        tracer.count(key, now() - t)
        return out
    return backward


def _traced_backward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def backward(root):
        nodes = _tape(root)
        tracer.count("autodiff.tape_nodes", len(nodes))
        for node in nodes:
            tracer.count(f"autodiff.nodes.{node._op}")
            if node._backward is not None:
                node._backward = _timed_op(tracer, f"autodiff.bwd_self_s.{node._op}",
                                           node._backward)
        i = tracer.begin("autodiff.backward")
        try:
            return fn(root)
        finally:
            tracer.end(i)
    return backward


def install_tracer(p: Patches, tracer: Tracer, held_out: int | None = None) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    t = tracer

    def sampled(args, out):
        t.count("data.bytes_per_step", out.data.nbytes)

    def materialized(args, out):
        t.count("views.views_per_step")

    def corresponded(args, out):
        t.count("views.queries")
        t.count("views.empty_queries", float(out.omega.size == 0))

    def encoded(args, out):
        t.count("groups.tokens_per_step", math.prod(args[1].tokens.shape[:-1]))

    def position(args, out):
        u = args[0]
        t.count("objectives.query_patches", u.shape[0] * u.shape[1])
        t.count("objectives.omega", out[2])

    def saved(args, out):
        t.count("checkpoint.saves")
        t.count("checkpoint.bytes", os.path.getsize(args[0]))

    def decoder_call(fn):
        traced = _span(t, "segmenter.decoder")(fn)

        @functools.wraps(fn)
        def call(dec, grid):
            t.decoder_layer = 0
            return traced(dec, grid)
        return call

    def layer_name(args):
        i = t.decoder_layer
        t.decoder_layer += 1
        return f"segmenter.decoder_layer{i}"

    p.wrap(data.DatasetReader, "sample", _span(t, "data.sample", sampled))
    p.wrap(model, "sample_reference_view", _span(t, "views.sample"))
    p.wrap(model, "sample_query_views", _span(t, "views.sample"))
    p.wrap(model, "materialize_view", _span(t, "views.materialize", materialized))
    p.wrap(model, "patchify", _span(t, "views.patchify"))
    p.wrap(segmenter, "patchify", _span(t, "views.patchify"))
    p.wrap(model, "compute_correspondence", _span(t, "views.correspondence", corresponded))
    p.wrap(groups.GroupEmbedder, "__call__", _span(t, "groups.embed"))
    p.wrap(groups.GroupPositionEncoding, "__call__", _span(t, "groups.encoding"))
    p.wrap(model, "sample_groups", _span(t, "groups.sample"))
    p.wrap(encoder.Encoder, "__call__", _span(t, "encoder.self", encoded))
    p.wrap(encoder.CrossAttentionBlock, "__call__", _span(t, "encoder.cross"))
    p.wrap(model, "position_loss", _span(t, "objectives.position", position))
    p.wrap(model, "cluster_objective", _span(t, "objectives.cluster"))
    p.wrap(objectives, "sinkhorn_knopp", _span(t, "objectives.sinkhorn"))
    p.wrap(model.PretrainModel, "forward_step", _span(t, "model.forward"))
    p.wrap(autodiff.Tensor, "backward", functools.partial(_traced_backward, t))
    p.wrap(optim.AdamW, "step", _span(t, "optim.step"))
    p.wrap(train, "save_checkpoint", _span(t, "checkpoint.save", saved))
    p.wrap(segmenter.SegmentationModel, "forward", _span(t, "segmenter.forward"))
    p.wrap(segmenter.LightDecoder, "__call__", decoder_call)
    p.wrap(segmenter, "conv2d", _span(t, layer_name))
    p.wrap(segmenter, "conv_transpose2d", _span(t, layer_name))
    p.wrap(segmenter, "pixel_cross_entropy", _span(t, "segmenter.loss"))
    if held_out is not None:
        p.wrap(segmenter, "evaluate", _span(
            t, lambda args: "segmenter.eval" if len(args[1]) == held_out
            else "segmenter.eval_train"))

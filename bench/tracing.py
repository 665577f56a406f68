"""Spans around calls into the program's layers, installed from outside.

``Tracer`` is a context manager. On entry it replaces, by attribute
assignment, the public op functions of ``auxnas.autodiff``, ``Tape.record``
and ``Tape.backward``, the forward methods of the named modules, and the
functions the training and search loops look up in their own module
namespaces; on exit it puts every original back. The wrappers only time
and forward their arguments, so the program computes exactly what it
computes untraced.

A span is ``[name, layer, start_ns, end_ns, parent, phase, bucket, extra]``.
``phase`` is the loop the span ran in (train, eval, ppo, ctrl or none),
``bucket`` the innermost named module that was active, and ``extra`` the
output bytes of an op, the sample count of an evaluation or the validity of
a candidate. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter

from auxnas import autodiff, auxiliary, controller, layers, model, search, train

# Ops the per-layer table names on its own; every other op lands in "other".
OP_NAMES = ("conv2d", "bilinear_resize", "batch_norm", "softmax_log", "pad2d_replicate",
            "grid_sample_bilinear", "concat_channels", "relu")
# Public functions of auxnas.autodiff that are not ops on tensors.
NOT_OPS = {"constant", "parameter", "active_tape", "tag_task", "tag_aux", "check_finite",
           "conv_out_size", "bilinear_resize_array", "detach"}
MODULE_BUCKETS = ("model.encoder.stem", "model.encoder.stage1", "model.encoder.stage2",
                  "model.encoder.stage3", "model.encoder.stage4", "model.aspp",
                  "model.decoder", "layers.head", "layers.sepconv", "layers.deform",
                  "auxiliary")
MB = float(1 << 20)


def _per_layer_units() -> dict[str, str]:
    units = {"data.gen_s": "s", "data.load_s": "s", "data.augment_ms": "ms"}
    for op in OP_NAMES + ("other",):
        units.update({f"autodiff.{op}.fwd_ms": "ms", f"autodiff.{op}.bwd_ms": "ms",
                      f"autodiff.{op}.calls": "count", f"autodiff.{op}.out_mb": "MB"})
    units.update({"autodiff.backward_ms": "ms", "autodiff.ops": "count",
                  "autodiff.eval_fwd_ms": "ms"})
    for b in MODULE_BUCKETS:
        units.update({f"{b}.fwd_ms": "ms", f"{b}.bwd_ms": "ms"})
    units.update({
        "model.load_checkpoint_ms": "ms", "auxiliary.strip_ms": "ms",
        "train.objective_ms": "ms", "train.sgd_step_ms": "ms",
        "train.grad_probe_ms": "ms", "train.eval_ms": "ms",
        "metrics.task_metrics_ms": "ms",
        "controller.sample_ms": "ms", "controller.score_tokens_ms": "ms",
        "search.ppo_update_ms": "ms", "search.candidate_s": "s", "search.invalid_ms": "ms",
        "search.candidates": "count", "search.valid_candidates": "count",
        "trace.overhead_pct": "%", "trace.op_coverage_pct": "%",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.taped: Counter = Counter()  # Tape.record calls per phase
        self._open: list[int] = []
        self._phase = ["none"]
        self._bucket = ["none"]
        self._op = "other"  # outermost op currently running, or "other"
        self._encoder: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str, layer: str, phase: str | None = None,
               bucket: str | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, 0, 0, self._open[-1] if self._open else -1,
                           phase or self._phase[-1], bucket or self._bucket[-1], None])
        self._open.append(idx)
        self.spans[idx][2] = time.perf_counter_ns()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._open.pop()

    # -- wrappers ------------------------------------------------------------

    def _wrap_op(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def op(*args, **kwargs):
            if tr._op != "other":  # an op called by another op counts toward the outer one
                return fn(*args, **kwargs)
            tr._op = name
            idx = tr._begin(name, "op")
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._end(idx)
                tr._op = "other"
            tr.spans[idx][7] = out.values.nbytes
            return out
        return op

    def _wrap_record(self, fn):
        tr = self

        @functools.wraps(fn)
        def record(tape, out, inputs, vjp):
            name, phase, bucket = tr._op, tr._phase[-1], tr._bucket[-1]
            tr.taped[phase] += 1

            def traced_vjp(g):
                idx = tr._begin(name, "bwd", phase, bucket)
                try:
                    return vjp(g)
                finally:
                    tr._end(idx)
            return fn(tape, out, inputs, traced_vjp)
        return record

    def _wrap_fn(self, name: str, fn, phase: str | None = None, extra=None):
        tr = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = tr._begin(name, "fn")
            if phase:
                tr._phase.append(phase)
            try:
                result = fn(*args, **kwargs)
            finally:
                if phase:
                    tr._phase.pop()
                tr._end(idx)
            if extra is not None:
                tr.spans[idx][7] = extra(args, result)
            return result
        return call

    def _wrap_module(self, bucket_of, fn):
        tr = self

        @functools.wraps(fn)
        def call(obj, *args, **kwargs):
            bucket = bucket_of(obj)
            if bucket is None:
                return fn(obj, *args, **kwargs)
            tr._bucket.append(bucket)
            idx = tr._begin(bucket, "mod")
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tr._end(idx)
                tr._bucket.pop()
        return call

    def _wrap_model_forward(self, fn):
        tr = self

        @functools.wraps(fn)
        def forward(m, *args, **kwargs):
            # only the encoder's own ConvBN blocks get a bucket of their own
            tr._encoder = {id(m.stem): "model.encoder.stem"}
            tr._encoder.update({id(s): f"model.encoder.stage{i + 1}"
                                for i, s in enumerate(m.stages)})
            return fn(m, *args, **kwargs)
        return forward

    def _patch(self, owner, attr: str, wrapper) -> None:
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper(orig))

    def __enter__(self) -> "Tracer":
        for name, fn in vars(autodiff).items():
            if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__ \
                    and not name.startswith("_") and name not in NOT_OPS:
                self._patch(autodiff, name, functools.partial(self._wrap_op, name))
        self._patch(autodiff.Tape, "record", self._wrap_record)
        self._patch(autodiff.Tape, "backward",
                    functools.partial(self._wrap_fn, "autodiff.backward"))

        fixed = lambda bucket: (lambda obj: bucket)  # noqa: E731
        for owner, attr, bucket_of in (
                (layers.ConvBN, "__call__", lambda obj: self._encoder.get(id(obj))),
                (layers.Aspp, "__call__", fixed("model.aspp")),
                (model.BaselineDecoder, "__call__", fixed("model.decoder")),
                (model.UshapeDecoder, "__call__", fixed("model.decoder")),
                (layers.TaskHead, "__call__", fixed("layers.head")),
                (layers.SepConv, "__call__", fixed("layers.sepconv")),
                (layers.DeformConv, "__call__", fixed("layers.deform")),
                (auxiliary.BasicAuxSet, "forward", fixed("auxiliary")),
                (auxiliary.GenotypeAuxSet, "forward", fixed("auxiliary"))):
            self._patch(owner, attr, functools.partial(self._wrap_module, bucket_of))
        self._patch(model.MtlModel, "forward", self._wrap_model_forward)

        fn = self._wrap_fn
        samples = lambda args, _r: len(args[1].splits[args[2]])  # noqa: E731
        valid = lambda _a, rec: rec.valid  # noqa: E731
        for owner, attr, wrapper in (
                (train, "augment", functools.partial(fn, "data.augment")),
                (train, "collate", functools.partial(fn, "data.collate")),
                (train, "joint_objective", functools.partial(fn, "train.objective")),
                (train, "sgd_step", functools.partial(fn, "train.sgd_step")),
                (train, "grad_probe", functools.partial(fn, "train.grad_probe")),
                (train, "evaluate_split",
                 functools.partial(fn, "train.eval", phase="eval", extra=samples)),
                (train, "task_metrics", functools.partial(fn, "metrics.task_metrics")),
                (train, "load_checkpoint", functools.partial(fn, "model.load_checkpoint")),
                (train, "strip_aux", functools.partial(fn, "auxiliary.strip")),
                (train, "run_strategy", functools.partial(fn, "train.run", phase="train")),
                (search, "run_strategy", functools.partial(fn, "train.run", phase="train")),
                (search, "evaluate_candidate",
                 functools.partial(fn, "search.candidate", extra=valid)),
                (search, "ppo_update", functools.partial(fn, "search.ppo_update", phase="ppo")),
                (search, "search_loop", functools.partial(fn, "search.loop")),
                (controller.ControllerPolicy, "sample",
                 functools.partial(fn, "controller.sample", phase="ctrl")),
                (controller.ControllerPolicy, "score_tokens",
                 functools.partial(fn, "controller.score_tokens"))):
            self._patch(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False


def layer_metrics(spans: list[list], taped: Counter, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer figures from the spans, per training iteration unless the
    name says otherwise (see the README). ``extra`` supplies figures measured
    outside the spans: data.gen_s, data.load_s and trace.overhead_pct."""
    total: Counter = Counter()   # summed ms, by key
    count: Counter = Counter()
    mod_self: dict[int, float] = {}
    candidates, evaluated, eval_in_train = [], 0, 0.0
    for i, (name, layer, t0, t1, parent, phase, bucket, ext) in enumerate(spans):
        ms = (t1 - t0) / 1e6
        if layer == "op":
            key = name if name in OP_NAMES else "other"
            if phase == "train":
                total[f"op.{key}.fwd"] += ms
                total[f"op.{key}.mb"] += ext / MB
                count[f"op.{key}"] += 1
            elif phase == "eval":
                total["op.eval"] += ms
        elif layer == "bwd" and phase == "train":
            total[f"op.{name if name in OP_NAMES else 'other'}.bwd"] += ms
            total[f"mod.{bucket}.bwd"] += ms
        elif layer == "mod" and phase == "train":
            mod_self[i] = ms
            if parent >= 0 and spans[parent][1] == "mod":
                mod_self[parent] -= ms
        elif layer == "fn":
            key = f"{name}@{phase}" if name in ("data.augment", "data.collate",
                                                 "autodiff.backward") else name
            total[key] += ms
            count[key] += 1
            if name == "search.candidate":
                candidates.append((ms, ext))
            elif name == "train.eval":
                evaluated += ext
                if phase == "train":
                    eval_in_train += ms
    for i, ms in mod_self.items():
        total[f"mod.{spans[i][0]}.fwd"] += ms

    iters = max(count["train.objective"], 1)
    searches = max(count["search.loop"], 1)

    def per_call(key):
        return total[key] / count[key] if count[key] else 0.0

    out = {"data.gen_s": extra["data.gen_s"], "data.load_s": extra["data.load_s"],
           "data.augment_ms": (total["data.augment@train"] + total["data.collate@train"]) / iters}
    op_ms = 0.0
    for op in OP_NAMES + ("other",):
        fwd, bwd = total[f"op.{op}.fwd"], total[f"op.{op}.bwd"]
        op_ms += fwd + bwd
        out.update({f"autodiff.{op}.fwd_ms": fwd / iters, f"autodiff.{op}.bwd_ms": bwd / iters,
                    f"autodiff.{op}.calls": count[f"op.{op}"] / iters,
                    f"autodiff.{op}.out_mb": total[f"op.{op}.mb"] / iters})
    out.update({"autodiff.backward_ms": total["autodiff.backward@train"] / iters,
                "autodiff.ops": taped["train"] / iters,
                "autodiff.eval_fwd_ms": total["op.eval"] / evaluated if evaluated else 0.0})
    for b in MODULE_BUCKETS:
        out[f"{b}.fwd_ms"] = total[f"mod.{b}.fwd"] / iters
        out[f"{b}.bwd_ms"] = total[f"mod.{b}.bwd"] / iters
    valid_s = [ms / 1e3 for ms, ok in candidates if ok]
    out.update({
        "model.load_checkpoint_ms": per_call("model.load_checkpoint"),
        "auxiliary.strip_ms": per_call("auxiliary.strip"),
        "train.objective_ms": total["train.objective"] / iters,
        "train.sgd_step_ms": total["train.sgd_step"] / iters,
        "train.grad_probe_ms": total["train.grad_probe"] / iters,
        "train.eval_ms": per_call("train.eval"),
        "metrics.task_metrics_ms": per_call("metrics.task_metrics"),
        "controller.sample_ms": per_call("controller.sample"),
        "controller.score_tokens_ms": per_call("controller.score_tokens"),
        "search.ppo_update_ms": per_call("search.ppo_update"),
        "search.candidate_s": statistics.median(valid_s) if valid_s else 0.0,
        "search.invalid_ms": sum(ms for ms, ok in candidates if not ok) / searches,
        "search.candidates": len(candidates) / searches,
        "search.valid_candidates": len(valid_s) / searches,
        "trace.overhead_pct": extra["trace.overhead_pct"],
        "trace.op_coverage_pct": 100.0 * op_ms / (total["train.run"] - eval_in_train)
        if total["train.run"] > eval_in_train else 0.0,
    })
    return out

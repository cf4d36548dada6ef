"""Per-layer tracing of nestgen from outside the program.

`Tracer.install()` replaces public functions and methods by attribute, at
the names they are looked up by (`trainer` binds `train_step` by name, `cli`
binds `sample_rows`, `metrics` binds `flatten_records`), with wrappers that
record a span per call; `uninstall()` puts the originals back. Nothing under
`src/` is instrumented. Backward time per autodiff op comes from wrapping
`Tape.record`: each recorded backward closure is timed under its op name,
taken from the closure's `__qualname__`.

Spans (name, start, end, parent) are kept in memory and written at the end.
A span's self time is its duration minus the time its child spans cover;
its inclusive time counts only the outermost span of a name, so recursion
is not counted twice. Wrapping changes no arithmetic, so traced results are
bitwise equal to untraced ones.

Exact counts are taken from call arguments and return values:

- `transformer.AttentionStack.gflop`: per call on x of shape (B, L, d),
  blocks x (8*B*L*d^2 + 4*B*L^2*d) / 1e9 (the q, k, v, o projections plus
  the score and context products).
- `autodiff.tape.ops_per_step`: ops recorded on tapes during the fit phase
  divided by the training steps of that phase.
- `codecs.ListCodec.sample_active_row_frac`: sum of sampled lengths divided
  by the sum of B x max(m) over `ListCodec.sample` calls: the share of
  decoded rows that are still inside their list.
- `codecs.ListCodec.train_valid_position_frac`: sum of lengths divided by
  the sum of B x max_len over `ListCodec.encode` calls: the share of list
  slots that are not padding.
- `codecs.ListCodec.sample_ms_per_position`: inclusive `ListCodec.sample`
  time in ms divided by the sum of max(m), the decoding steps run.
- `trainer.dp_grad_matrix_mb`: largest nbytes / 1e6 of the per-example
  gradient matrix passed to `dp_step`.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

AUTODIFF_OPS = ["matmul", "softmax", "log_softmax", "masked_fill", "transpose",
                "reshape", "concat", "narrow", "add", "scale", "mul_const",
                "gather_rows", "take_rows", "gather_positions",
                "take_along_last", "sum_axis"]
CODEC_CLASSES = ["StructCodec", "ListCodec", "CategoricalCodec",
                 "NumericalCodec"]
CODEC_METHODS = ["encode", "decode", "loss_terms", "sample"]
MEM_PHASES = ["fit", "dp_fit", "sample", "eval"]

# span name -> the "module:attribute" sites it is looked up at; a method is
# "module:Class.method" and is patched on the class that defines it
SITES = {
    "codecs.train_step": ["nestgen.trainer:train_step"],
    "codecs.per_example_gradients": ["nestgen.trainer:per_example_gradients"],
    "codecs.sample_rows": ["nestgen.cli:sample_rows"],
    "trainer.fit": ["nestgen.trainer:fit"],
    "trainer.dp_step": ["nestgen.trainer:dp_step"],
    "batches.take": ["nestgen.trainer:take", "nestgen.codecs.base:take"],
    "schema.parse_schema": ["nestgen.schema:parse_schema",
                            "nestgen.cli:parse_schema",
                            "nestgen.artifact:parse_schema"],
    "schema.compile_schema": ["nestgen.schema:compile_schema",
                              "nestgen.cli:compile_schema",
                              "nestgen.artifact:compile_schema"],
    "artifact.save_model": ["nestgen.artifact:save_model"],
    "artifact.load_model": ["nestgen.artifact:load_model"],
    "data.flatten_records": ["nestgen.data:flatten_records",
                             "nestgen.metrics:flatten_records"],
    **{f"data.{f}": [f"nestgen.data:{f}"] for f in [
        "read_records", "check_records", "fit_transform", "build_batch",
        "records_from_batch", "write_records"]},
    **{f"metrics.{f}": [f"nestgen.metrics:{f}"] for f in [
        "jensen_shannon", "wasserstein_1d", "correlation_diff",
        "marginal_score"]},
    **{f"cli.{f}": [f"nestgen.cli:{f}"] for f in [
        "cmd_fit", "cmd_sample", "cmd_eval"]},
    **{f"autodiff.{op}.fwd": [f"nestgen.autodiff:{op}"] for op in AUTODIFF_OPS},
    "optim.Adam.step": ["nestgen.optim:Adam.step"],
    "params.ParamStore.gradients": ["nestgen.params:ParamStore.gradients"],
    "transformer.AttentionStack": ["nestgen.transformer:AttentionStack.__call__"],
    "autodiff.Tape.backward": ["nestgen.autodiff:Tape.backward"],
    **{f"codecs.{c}.{m}": [f"nestgen.codecs.composites:{c}.{m}"]
       for c in CODEC_CLASSES[:2] for m in CODEC_METHODS + ["reshuffle"]},
    **{f"codecs.{c}.{m}": [f"nestgen.codecs.primitives:{c}.{m}"]
       for c in CODEC_CLASSES[2:] for m in CODEC_METHODS},
}


def _catalog():
    """[(metric, unit, better, source)] for every per-layer metric. source is
    (kind, key): kind "self", "incl" or "calls" reads that span statistic of
    span `key`; kind "value" reads `key` from Tracer.metrics' derived values."""
    out = []
    for op in AUTODIFF_OPS:
        out += [(f"autodiff.{op}.fwd_s", "s", "lower", ("self", f"autodiff.{op}.fwd")),
                (f"autodiff.{op}.bwd_s", "s", "lower", ("self", f"autodiff.{op}.bwd")),
                (f"autodiff.{op}.calls", "count", "lower", ("calls", f"autodiff.{op}.fwd"))]
    attn = "transformer.AttentionStack"
    out += [("autodiff.Tape.backward_s", "s", "lower", ("incl", "autodiff.Tape.backward")),
            ("autodiff.tape.ops_per_step", "count", "lower", ("value", "ops_per_step")),
            (f"{attn}.fwd_s", "s", "lower", ("incl", attn)),
            (f"{attn}.calls", "count", "lower", ("calls", attn)),
            (f"{attn}.positions", "count", "lower", ("value", "positions")),
            (f"{attn}.gflop", "GFLOP", "lower", ("value", "gflop"))]
    out += [(f"codecs.{f}_s", "s", "lower", ("incl", f"codecs.{f}"))
            for f in ["train_step", "per_example_gradients", "sample_rows"]]
    out += [(f"codecs.{c}.{m}_self_s", "s", "lower", ("self", f"codecs.{c}.{m}"))
            for c in CODEC_CLASSES for m in CODEC_METHODS]
    out += [(f"codecs.{c}.reshuffle_self_s", "s", "lower",
             ("self", f"codecs.{c}.reshuffle")) for c in CODEC_CLASSES[:2]]
    out += [("codecs.ListCodec.sample_active_row_frac", "share", "higher",
             ("value", "sample_active_row_frac")),
            ("codecs.ListCodec.train_valid_position_frac", "share", "higher",
             ("value", "train_valid_position_frac")),
            ("codecs.ListCodec.sample_ms_per_position", "ms", "lower",
             ("value", "sample_ms_per_position")),
            ("trainer.fit_self_s", "s", "lower", ("self", "trainer.fit")),
            ("trainer.dp_step_s", "s", "lower", ("incl", "trainer.dp_step")),
            ("trainer.dp_grad_matrix_mb", "MB", "lower", ("value", "dp_grad_matrix_mb"))]
    out += [(f"{span}_s", "s", "lower", ("incl", span)) for span in [
        "optim.Adam.step", "batches.take", "params.ParamStore.gradients",
        "data.read_records", "data.check_records", "data.fit_transform",
        "data.build_batch", "data.records_from_batch", "data.write_records",
        "data.flatten_records", "schema.parse_schema", "schema.compile_schema",
        "artifact.save_model", "artifact.load_model"]]
    out += [("artifact.bundle_bytes", "bytes", "lower", ("value", "bundle_bytes"))]
    out += [(f"metrics.{f}_s", "s", "lower", ("incl", f"metrics.{f}")) for f in [
        "jensen_shannon", "wasserstein_1d", "correlation_diff", "marginal_score"]]
    out += [(f"cli.{c}_self_s", "s", "lower", ("self", f"cli.{c}"))
            for c in ["cmd_fit", "cmd_sample", "cmd_eval"]]
    out += [(f"mem.{p}.peak_alloc_mb", "MB", "lower", ("value", f"mem.{p}"))
            for p in MEM_PHASES]
    out += [("trace.overhead_frac", "share", "lower", ("value", "overhead_frac"))]
    return out


PER_LAYER = _catalog()


def _resolve(site):
    """(owner, attribute name) of a site; owner None when it does not exist
    in this version of nestgen."""
    module, attr = site.split(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, attr
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, name
    return owner, name


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._open: list[tuple[int, str]] = []
        self._covered: list[float] = []
        self._depth: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans

    def _enter(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append((idx, name))
        self._covered.append(0.0)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.span_start.append(time.perf_counter())

    def _exit(self):
        t = time.perf_counter()
        idx, name = self._open.pop()
        covered = self._covered.pop()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._covered:
            self._covered[-1] += dur

    def wrap(self, name, fn, observe=None):
        """fn inside a span; observe(args, result) runs after the span."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # ---- patches

    def _patch(self, site, name, observe=None):
        owner, attr = _resolve(site)
        if owner is None:
            return
        if isinstance(owner, type):
            if attr not in vars(owner):
                return
        elif not hasattr(owner, attr):
            return
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, observe))

    def install(self):
        observers = {
            "transformer.AttentionStack": self._observe_attention,
            "codecs.ListCodec.sample": self._observe_list_sample,
            "codecs.ListCodec.encode": self._observe_list_encode,
            "trainer.dp_step": self._observe_dp_step,
        }
        for name, sites in SITES.items():
            for site in sites:
                self._patch(site, name, observers.get(name))
        from nestgen.autodiff import Tape
        if "record" in vars(Tape):
            record = vars(Tape)["record"]
            wrap, count = self.wrap, self.count

            def traced_record(tape, out, backward):
                count("tape_ops", 1)
                op = backward.__qualname__.split(".")[0]
                return record(tape, out, wrap(f"autodiff.{op}.bwd", backward))

            self._undo.append((Tape, "record", record))
            Tape.record = traced_record

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- observers: exact counts from arguments and return values

    def _observe_attention(self, args, result):
        stack, x = args[0], args[1]
        B, L, d = x.data.shape
        blocks = len(stack.blocks)
        self.count("attn_positions", B * L)
        self.count("attn_flop", blocks * (8 * B * L * d * d + 4 * B * L * L * d))

    def _observe_list_sample(self, args, result):
        m = np.asarray(result[0].lengths)
        top = int(m.max(initial=0))
        self.count("list_sample_active", int(m.sum()))
        self.count("list_sample_slots", m.shape[0] * top)
        self.count("list_sample_steps", top)

    def _observe_list_encode(self, args, result):
        codec, x = args[0], args[1]
        lengths = np.asarray(x.lengths)
        self.count("list_train_valid", int(lengths.sum()))
        self.count("list_train_slots", lengths.shape[0] * codec.max_len)

    def _observe_dp_step(self, args, result):
        nbytes = np.asarray(args[0]).nbytes
        self.counts["dp_matrix_bytes"] = max(
            self.counts.get("dp_matrix_bytes", 0), nbytes)

    # ---- results

    def metrics(self, fit_ops, fit_steps, bundle_bytes, mem, overhead):
        """{metric: (value, unit)} for every per-layer metric. fit_ops and
        fit_steps are the tape ops and training steps counted during the fit
        phase; mem maps each of MEM_PHASES to its allocation peak in MB."""
        c = self.counts

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        derived = {
            "ops_per_step": ratio(fit_ops, fit_steps),
            "positions": c.get("attn_positions", 0),
            "gflop": c.get("attn_flop", 0) / 1e9,
            "sample_active_row_frac": ratio(c.get("list_sample_active", 0),
                                            c.get("list_sample_slots", 0)),
            "train_valid_position_frac": ratio(c.get("list_train_valid", 0),
                                               c.get("list_train_slots", 0)),
            "sample_ms_per_position": ratio(
                self.incl_s.get("codecs.ListCodec.sample", 0.0),
                c.get("list_sample_steps", 0), 1e3),
            "dp_grad_matrix_mb": c.get("dp_matrix_bytes", 0) / 1e6,
            "bundle_bytes": bundle_bytes,
            "overhead_frac": overhead,
            **{f"mem.{p}": mem[p] for p in MEM_PHASES},
        }
        stats = {"self": self.self_s, "incl": self.incl_s, "calls": self.calls,
                 "value": derived}
        return {name: (stats[kind].get(key, 0), unit)
                for name, unit, _, (kind, key) in PER_LAYER}

    def save(self, path):
        """Write every span: names, start, end, parent index (-1 = root)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64))

"""Command line interface: fit, sample, eval, inspect.

Every run is reproducible from its flags: all randomness flows from --seed
through per-purpose generator streams, and fit records its full
configuration plus a content hash of the inputs in the model bundle.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import artifact, data, metrics, trainer
from .codecs.base import sample_rows
from .rng import SAMPLE, stream
from .schema import (SchemaError, compile_schema, describe, parse_schema,
                     serialize_schema)
from .trainer import DpConfig, TrainConfig
from .transformer import TransformerConfig

log = logging.getLogger("nestgen.cli")


class CliError(Exception):
    """Raised with (stage, message); main() prints and exits 1."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def _add_model_flags(p):
    p.add_argument("--width", type=int, default=TransformerConfig.width,
                   help="embedding width (default %(default)s)")
    p.add_argument("--blocks", type=int, default=TransformerConfig.blocks,
                   help="attention blocks per encoder/decoder (default %(default)s)")
    p.add_argument("--heads", type=int, default=TransformerConfig.heads,
                   help="attention heads (default %(default)s)")


@functools.cache  # built once per process; each parse_args makes a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nestgen",
        description="Synthesize nested tabular data with autoregressive "
                    "attention codecs.")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="train a model from a schema and a dataset")
    fit.add_argument("--schema", required=True, help="schema JSON file")
    fit.add_argument("--data", required=True, help="training data (csv or jsonl)")
    fit.add_argument("--out", required=True, help="model bundle to write")
    fit.add_argument("--format", choices=["csv", "jsonl"],
                     help="input format (default: by file extension)")
    fit.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    fit.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    fit.add_argument("--lr", type=float, default=TrainConfig.lr)
    _add_model_flags(fit)
    fit.add_argument("--seed", type=int, default=TrainConfig.seed)
    fit.add_argument("--shuffle-passes", type=int, default=TrainConfig.shuffle_passes,
                     help="decoding passes per batch for shuffled nodes (default %(default)s)")
    fit.add_argument("--dp", action="store_true",
                     help="train with per-example clipping and Gaussian noise")
    fit.add_argument("--clip", type=float, default=DpConfig.clip_norm,
                     help="DP clip norm C (default %(default)s)")
    fit.add_argument("--noise", type=float, default=DpConfig.noise_multiplier,
                     help="DP noise multiplier (default %(default)s)")

    sample = sub.add_parser("sample", help="draw synthetic records from a model")
    sample.add_argument("--model", required=True, help="model bundle")
    sample.add_argument("--count", type=int, required=True,
                        help="number of records to draw")
    sample.add_argument("--out", required=True, help="output file")
    sample.add_argument("--format", choices=["csv", "jsonl"], default=None,
                        help="output format (default: by file extension, "
                             "else jsonl)")
    sample.add_argument("--seed", type=int, default=0)

    ev = sub.add_parser("eval", help="compare a synthetic dataset to a real one")
    ev.add_argument("real", help="real dataset file")
    ev.add_argument("synth", help="synthetic dataset file")
    ev.add_argument("--schema", required=True, help="schema JSON file")
    ev.add_argument("--out", help="write the JSON report here")
    ev.add_argument("--k", type=int, default=4, help="marginal order (default 4)")
    ev.add_argument("--subsets", type=int, default=50,
                    help="random column subsets to average (default 50)")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--rules", help="consistency rules JSON file")

    ins = sub.add_parser("inspect", help="describe a model bundle")
    ins.add_argument("--model", required=True, help="model bundle")
    return ap


def _load_schema(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_schema(fh.read())
    except OSError as e:
        raise CliError("parse", f"cannot read schema: {e}")
    except SchemaError as e:
        raise CliError("parse", f"{path}: {e}")


def cmd_fit(args) -> int:
    # flags are checked before the data is read, so a bad one fails at once
    try:
        TransformerConfig(args.width, args.blocks, args.heads)
    except ValueError as e:
        raise CliError("parse", str(e))
    try:
        cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                          lr=args.lr, shuffle_passes=args.shuffle_passes,
                          seed=args.seed)
        dp = DpConfig(clip_norm=args.clip, noise_multiplier=args.noise) if args.dp else None
    except ValueError as e:
        raise CliError("train", str(e))

    # the run log is opened before the data is read, so an --out that cannot
    # be written fails at once, and it replaces an earlier log only once the
    # bundle is saved
    log_path = args.out + ".log.jsonl"
    try:
        with artifact.atomic_write(log_path, "w", encoding="utf-8") as run_log:
            n_params, loss = _fit_and_save(args, cfg, dp, run_log, log_path)
    except OSError as e:
        raise CliError("save", f"cannot write run log: {log_path}: {e.strerror or e}")
    print(f"model written to {args.out} "
          f"({n_params} parameters, final loss {loss:.4f})")
    return 0


def _fit_and_save(args, cfg, dp, run_log, log_path):
    """Ingest, compile, train into `run_log` and save the bundle; returns
    (parameter count, final epoch mean loss). Only writing `run_log` may
    raise OSError."""
    schema = _load_schema(args.schema)
    try:
        tree, tf, report = data.ingest(args.data, schema, fmt=args.format)
        input_hash = artifact.content_hash(args.schema, args.data)
    except OSError as e:
        raise CliError("ingest", f"cannot read data: {e}")
    except data.DataError as e:
        raise CliError("ingest", str(e))
    log.info("ingested %d records (%d rejected)", report.kept, report.rejected)

    config = {"width": args.width, "blocks": args.blocks, "heads": args.heads,
              "seed": args.seed, "epochs": args.epochs,
              "batch_size": args.batch_size, "lr": args.lr,
              "shuffle_passes": args.shuffle_passes, "dp": bool(args.dp),
              "clip": args.clip, "noise": args.noise}
    try:
        codec, store = compile_schema(tf.schema, width=args.width,
                                      blocks=args.blocks, heads=args.heads,
                                      seed=args.seed, tables=tf.tables)
    except (SchemaError, ValueError) as e:
        raise CliError("parse", str(e))

    try:
        history = trainer.fit(codec, store, tree, cfg, dp=dp, log=run_log)
    except (FloatingPointError, ValueError) as e:
        raise CliError("train", str(e))
    means = trainer.epoch_means(history)
    log.info("final epoch mean loss %.6f", means[-1])

    manifest = {"schema": os.path.abspath(args.schema),
                "data": os.path.abspath(args.data),
                "model": os.path.abspath(args.out),
                "seed": args.seed, "config": config,
                "input_sha256": input_hash,
                "records": report.kept, "rejected": report.rejected,
                "final_loss": means[-1], "run_log": os.path.abspath(log_path)}
    try:
        artifact.save_model(args.out, store, tf, config, manifest)
    except OSError as e:
        raise CliError("save", f"cannot write model: {e}")
    return store.n_params(), means[-1]


def _load_model(path):
    try:
        return artifact.load_model(path)
    except OSError as e:
        raise CliError("load", f"cannot read model: {e}")
    except (artifact.ArtifactError, SchemaError, ValueError) as e:
        raise CliError("load", str(e))


def cmd_sample(args) -> int:
    if args.count < 0:
        raise CliError("parse", f"--count must be >= 0, got {args.count}")
    codec, store, tf, config, _ = _load_model(args.model)
    fmt = args.format
    if fmt is None:
        try:
            fmt = data.detect_format(args.out)
        except data.DataError:
            fmt = "jsonl"
    if fmt == "csv" and not data.is_flat(tf.schema):
        raise CliError("sample", "CSV output requires a flat record schema; "
                                 "choose jsonl")
    rng = stream(args.seed, SAMPLE)
    tree = sample_rows(codec, store, args.count, rng)
    records = data.records_from_batch(tree, tf)
    try:
        data.write_records(records, tf.schema, args.out, fmt)
    except OSError as e:
        raise CliError("sample", f"cannot write output: {e}")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_eval(args) -> int:
    # flags are checked before any file is read, as fit checks its own
    if args.k < 1:
        raise CliError("parse", f"--k: marginal order k must be >= 1, got {args.k}")
    if args.subsets < 1:
        raise CliError("parse", f"--subsets: n_subsets must be >= 1, got {args.subsets}")
    schema = _load_schema(args.schema)
    rules = None
    if args.rules:
        try:
            with open(args.rules, encoding="utf-8") as fh:
                rules = json.load(fh)
        except OSError as e:
            raise CliError("eval", f"cannot read rules: {e}")
        except json.JSONDecodeError as e:
            raise CliError("eval", f"{args.rules}: rules file is not valid JSON: {e}")
    try:
        report = metrics.evaluate(data.read_records(args.real),
                                  data.read_records(args.synth), schema, k=args.k,
                                  n_subsets=args.subsets, seed=args.seed, rules=rules)
    except OSError as e:
        raise CliError("eval", f"cannot read dataset: {e}")
    except (metrics.MetricsError, data.DataError) as e:
        where = f"{(args.real, args.synth)[e.dataset]}: " if hasattr(e, "dataset") else ""
        raise CliError("eval", f"{where}{e}")
    sys.stdout.write(report.to_text())
    if args.out:
        try:
            with artifact.atomic_write(args.out, "w", encoding="utf-8") as fh:
                json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            raise CliError("eval", f"cannot write report: {e}")
        print(f"report written to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    codec, store, tf, config, manifest = _load_model(args.model)
    print("schema:")
    print(serialize_schema(tf.schema))
    print()
    print(f"codec tree: {describe(codec)}")
    print(f"parameters: {store.n_params()} across {len(store.paths())} tensors")
    print(f"config: width={config['width']} blocks={config['blocks']} "
          f"heads={config['heads']} seed={config.get('seed', 0)}")
    if manifest:
        print("manifest:")
        for k in sorted(manifest):
            print(f"  {k}: {manifest[k]}")
    return 0


def main(argv=None) -> int:
    level = os.environ.get("NESTGEN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handlers = {"fit": cmd_fit, "sample": cmd_sample,
                "eval": cmd_eval, "inspect": cmd_inspect}
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError("parse", f"--seed must be >= 0, got {args.seed}")
        return handlers[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

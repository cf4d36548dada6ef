"""Model bundles and the command line, exercised end to end in-process."""

import hashlib
import io
import json
import logging
import os
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from nestgen import artifact, trainer
from nestgen.artifact import (ArtifactError, content_hash, load_model,
                              save_model)
from nestgen.cli import main
from nestgen.codecs.base import pass_losses
from nestgen.data import ingest_records, read_records
from nestgen.schema import compile_schema, parse_schema

FLAT_DOC = {"type": "record", "name": "r", "fields": [
    {"name": "color", "type": "enum"},
    {"name": "size", "type": "enum"},
    {"name": "weight", "type": "float", "bins": 4}]}

NESTED_DOC = {"type": "record", "name": "user", "fields": [
    {"name": "age", "type": "int", "bins": 3},
    {"name": "sex", "type": "enum"},
    {"name": "tx", "type": "array", "max_len": 4,
     "items": {"type": "record", "name": "t", "fields": [
         {"name": "place", "type": "enum"},
         {"name": "price", "type": "float", "bins": 3}]}}]}


def flat_rows(rng, n):
    return [{"color": str(rng.choice(["red", "green", "blue"])),
             "size": str(rng.choice(["s", "l"])),
             "weight": float(np.round(rng.uniform(1, 5), 3))}
            for _ in range(n)]


def nested_rows(rng, n):
    out = []
    for _ in range(n):
        m = int(rng.integers(0, 4))
        out.append({"age": int(rng.integers(20, 60)),
                    "sex": str(rng.choice(["f", "m"])),
                    "tx": [{"place": str(rng.choice(["a", "b"])),
                            "price": float(rng.integers(1, 9))}
                           for _ in range(m)]})
    return out


def write_csv(path, rows):
    cols = list(rows[0])
    lines = [",".join(cols)]
    lines += [",".join(str(r[c]) for c in cols) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    return str(path)


def fitted_flat(tmp_path, seed=0):
    schema = parse_schema(FLAT_DOC)
    rows = flat_rows(np.random.default_rng(3), 60)
    tree, tf, _ = ingest_records(rows, schema)
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2,
                                  seed=seed, tables=tf.tables)
    config = {"width": 8, "blocks": 1, "heads": 2, "seed": seed}
    return codec, store, tf, config


# -- artifact round trips --------------------------------------------------------

def test_save_load_roundtrip_bitwise(tmp_path):
    _, store, tf, config = fitted_flat(tmp_path)
    rng = np.random.default_rng(9)
    for p in store.paths():
        store[p].data += rng.normal(size=store[p].data.shape)
    path = tmp_path / "m.ngm"
    manifest = {"note": "round trip", "records": 60}
    save_model(path, store, tf, config, manifest)
    codec2, store2, tf2, config2, manifest2 = load_model(path)
    assert sorted(store2.paths()) == sorted(store.paths())
    for p in store.paths():
        assert np.array_equal(store[p].data, store2[p].data), p
    assert tf2.vocabs == tf.vocabs
    assert set(tf2.tables) == set(tf.tables)
    for k in tf.tables:
        assert np.array_equal(tf.tables[k].q, tf2.tables[k].q)
        assert tf.tables[k].integer == tf2.tables[k].integer
    assert config2 == config and manifest2 == manifest
    # saving what was loaded reproduces the exact bytes
    path2 = tmp_path / "m2.ngm"
    save_model(path2, store2, tf2, config2, manifest2)
    assert path.read_bytes() == (tmp_path / "m2.ngm").read_bytes()


def test_double_save_is_deterministic(tmp_path):
    _, store, tf, config = fitted_flat(tmp_path)
    a, b = tmp_path / "a.ngm", tmp_path / "b.ngm"
    save_model(a, store, tf, config)
    save_model(b, store, tf, config)
    assert a.read_bytes() == b.read_bytes()


def failing_on_second_call(monkeypatch, owner, name, error=OSError("disk full")):
    original = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


@pytest.mark.parametrize("owner, name", [(artifact, "_npy_bytes"),
                                         (zipfile.ZipFile, "writestr")])
def test_failed_save_leaves_old_bundle(tmp_path, monkeypatch, owner, name):
    _, store, tf, config = fitted_flat(tmp_path)
    path = tmp_path / "m.ngm"
    save_model(path, store, tf, config, {"run": "old"})
    old = path.read_bytes()
    failing_on_second_call(monkeypatch, owner, name)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, store, tf, config, {"run": "new"})
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert load_model(path)[4] == {"run": "old"}
    assert [p.name for p in tmp_path.iterdir()] == ["m.ngm"]


def test_loaded_model_samples_identically(tmp_path):
    codec, store, tf, config = fitted_flat(tmp_path)
    from nestgen.codecs.base import sample_rows
    path = tmp_path / "m.ngm"
    save_model(path, store, tf, config)
    codec2, store2, *_ = load_model(path)
    t1 = sample_rows(codec, store, 40, np.random.default_rng(5))
    t2 = sample_rows(codec2, store2, 40, np.random.default_rng(5))
    for name in t1.fields:
        assert np.array_equal(t1.fields[name].codes, t2.fields[name].codes)


def test_load_errors(tmp_path):
    missing = tmp_path / "nope.ngm"
    with pytest.raises((ArtifactError, OSError)):
        load_model(missing)
    garbage = tmp_path / "g.ngm"
    garbage.write_bytes(b"not a zip at all")
    with pytest.raises(ArtifactError, match="not a readable model bundle"):
        load_model(garbage)
    empty = tmp_path / "e.ngm"
    with zipfile.ZipFile(empty, "w") as zf:
        zf.writestr("other.txt", "hi")
    with pytest.raises(ArtifactError, match="missing meta.json"):
        load_model(empty)
    for payload in (b"{not json", b"\xff\xfe garbage"):
        unparsed = tmp_path / "j.ngm"
        with zipfile.ZipFile(unparsed, "w") as zf:
            zf.writestr("meta.json", payload)
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(unparsed))}: meta.json is not"):
            load_model(unparsed)
    wrong = tmp_path / "w.ngm"
    with zipfile.ZipFile(wrong, "w") as zf:
        zf.writestr("meta.json", json.dumps({"format": "other"}))
    with pytest.raises(ArtifactError, match="not a nestgen-model bundle"):
        load_model(wrong)
    stale = tmp_path / "v.ngm"
    with zipfile.ZipFile(stale, "w") as zf:
        zf.writestr("meta.json",
                    json.dumps({"format": "nestgen-model", "version": 99}))
    with pytest.raises(ArtifactError, match="version 99"):
        load_model(stale)


# A version-1 bundle written by an earlier release: `nestgen fit` on 120
# records of {age: int(10 bins), region: enum(4), tx: shuffled array(max_len
# 4) of {kind: enum(3), price: float(8 bins)}} with --width 8 --blocks 1
# --heads 2 --epochs 2 --batch-size 32 --lr 0.01 --seed 3 (manifest paths
# made relative), its `sample --count 50 --seed 7` output, and the
# per-record NLL of that sample under the bundle: row 0 in identity order,
# rows 1 and 2 the two passes of `passes=2` under np.random.default_rng(0).
FIXTURES = Path(__file__).parent / "fixtures"
V1_BUNDLE = FIXTURES / "nested_v1.nestgen"
V1_SAMPLE = FIXTURES / "nested_v1_sample.jsonl"
V1_NLL = FIXTURES / "nested_v1_nll.npy"


def test_version_1_bundle_samples_as_when_written(tmp_path, capsys):
    out = tmp_path / "sample.jsonl"
    assert main(["sample", "--model", str(V1_BUNDLE), "--count", "50",
                 "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == V1_SAMPLE.read_bytes()


def test_version_1_bundle_scores_as_when_written():
    codec, store, tf, _, _ = load_model(V1_BUNDLE)
    tree, _, _ = ingest_records(read_records(str(V1_SAMPLE)), tf.schema, transform=tf)
    identity = pass_losses(codec, store, tree)[0].data
    shuffled = pass_losses(codec, store, tree, rng=np.random.default_rng(0), passes=2)
    got = np.stack([identity] + [t.data for t in shuffled])
    np.testing.assert_allclose(got, np.load(V1_NLL), rtol=0, atol=1e-12)


def _with_config(src, dst, **changes):
    """Copy a bundle, updating its meta.json config."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for item in zin.infolist():
            payload = zin.read(item)
            if item.filename == "meta.json":
                meta = json.loads(payload)
                meta["config"].update(changes)
                payload = json.dumps(meta).encode("utf-8")
            zout.writestr(item, payload)


def _rezip(src, dst, drop_entry=None, drop_key=None):
    """Copy a bundle without one zip entry or without one meta.json key."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for item in zin.infolist():
            if item.filename == drop_entry:
                continue
            payload = zin.read(item)
            if item.filename == "meta.json" and drop_key:
                meta = json.loads(payload)
                del meta[drop_key]
                payload = json.dumps(meta).encode("utf-8")
            zout.writestr(item, payload)


@pytest.mark.parametrize("drop, missing", [
    ({"drop_key": "config"}, "'config'"),
    ({"drop_key": "tables"}, "'tables'"),
    ({"drop_entry": "params/0.npy"}, "params/0.npy"),
])
def test_bundle_missing_key_or_entry_is_named(tmp_path, capsys, drop, missing):
    broken = tmp_path / "broken.ngm"
    _rezip(V1_BUNDLE, broken, **drop)
    with pytest.raises(ArtifactError, match=re.escape(missing)) as err:
        load_model(broken)
    assert str(broken) in str(err.value)
    assert main(["inspect", "--model", str(broken)]) == 1
    printed = capsys.readouterr().err
    assert printed.startswith("error: load: ") and missing in printed


def _with_meta(src, dst, edit):
    """Copy a bundle, replacing its meta.json by edit(meta)."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for item in zin.infolist():
            payload = zin.read(item)
            if item.filename == "meta.json":
                payload = json.dumps(edit(json.loads(payload))).encode("utf-8")
            zout.writestr(item, payload)


def _replaced(meta, *keys, value):
    """meta with meta[keys[0]][keys[1]]... set to value."""
    meta = json.loads(json.dumps(meta))
    inner = meta
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return meta


@pytest.mark.parametrize("edit, message", [
    (lambda m: [m], "not a nestgen-model bundle"),
    (lambda m: _replaced(m, "vocabs", value=[]), "'vocabs' must be an object"),
    (lambda m: _replaced(m, "vocabs", "user/region", value=4), "'user/region' must be a list"),
    (lambda m: _replaced(m, "tables", value=[]), "'tables' must be an object"),
    (lambda m: _replaced(m, "params", value="params/0.npy"), "'params' must be an object"),
    (lambda m: _replaced(m, "config", value=[8, 1, 2]), "'config' must be an object"),
    (lambda m: _replaced(m, "tables", "user/age", value="tables/0.npy"),
     "tables 'user/age' must be an object"),
    (lambda m: _replaced(m, "config", "width", value="32"), "'width' must be an integer"),
    (lambda m: _replaced(m, "config", "width", value=32.0), "'width' must be an integer"),
    (lambda m: _replaced(m, "config", "heads", value=True), "'heads' must be an integer"),
    (lambda m: _replaced(m, "tables", "user/age", "integer", value="no"),
     "'integer' must be a boolean"),
])
def test_malformed_bundle_meta_is_named(tmp_path, capsys, edit, message):
    broken = tmp_path / "broken.ngm"
    _with_meta(V1_BUNDLE, broken, edit)
    with pytest.raises(ArtifactError, match=re.escape(message)) as err:
        load_model(broken)
    assert str(err.value).startswith(f"{broken}: ")
    for argv in (["inspect"], ["sample", "--count", "2", "--out", str(tmp_path / "s.jsonl")]):
        assert main([*argv, "--model", str(broken)]) == 1
        printed = capsys.readouterr().err
        assert printed.startswith(f"error: load: {broken}: ") and message in printed


def _npy(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


AGE_W = np.load(io.BytesIO(zipfile.ZipFile(V1_BUNDLE).read("params/0.npy")))


@pytest.mark.parametrize("entry, edit, message", [
    (_npy(np.where(np.arange(80).reshape(10, 8) == 17, np.nan, AGE_W)), None,
     "parameter user/age/W: non-finite value"),
    (_npy(np.where(np.arange(80).reshape(10, 8) == 3, -np.inf, AGE_W)), None,
     "parameter user/age/W: non-finite value"),
    (_npy(np.zeros((10, 8), dtype=np.int64)), None,
     "parameter user/age/W: expected float64 (10, 8), got int64 (10, 8)"),
    (_npy(AGE_W + 1j), None,
     "parameter user/age/W: expected float64 (10, 8), got complex128 (10, 8)"),
    (_npy(AGE_W.astype(np.float32)), None,
     "parameter user/age/W: expected float64 (10, 8), got float32 (10, 8)"),
    (_npy(AGE_W[:9]), None,
     "parameter user/age/W: expected float64 (10, 8), got float64 (9, 8)"),
    (None, lambda m: {**m, "params": {p: f for p, f in m["params"].items()
                                      if p != "user/age/W"}},
     "missing ['user/age/W'], unexpected []"),
    (None, lambda m: {**m, "params": {**m["params"], "user/extra/W": "params/0.npy"}},
     "missing [], unexpected ['user/extra/W']"),
], ids=["nan", "inf", "int64", "complex128", "float32", "short", "missing", "extra"])
def test_bad_parameter_entry_is_named(tmp_path, capsys, entry, edit, message):
    # a parameter entry that is not a finite float64 array of the compiled
    # shape, or a parameter path the compiled model lacks or needs, is
    # refused with the bundle named, by load_model and by the CLI
    broken = tmp_path / "broken.ngm"
    with zipfile.ZipFile(V1_BUNDLE) as zin, zipfile.ZipFile(broken, "w") as zout:
        for item in zin.infolist():
            payload = zin.read(item)
            if item.filename == "params/0.npy" and entry is not None:
                payload = entry
            if item.filename == "meta.json" and edit is not None:
                payload = json.dumps(edit(json.loads(payload))).encode("utf-8")
            zout.writestr(item, payload)
    with pytest.raises(ArtifactError, match=re.escape(message)) as err:
        load_model(broken)
    assert str(err.value).startswith(f"{broken}: ")
    for argv in (["inspect"], ["sample", "--count", "2", "--out", str(tmp_path / "s.jsonl")]):
        assert main([*argv, "--model", str(broken)]) == 1
        printed = capsys.readouterr().err
        assert printed.startswith(f"error: load: {broken}: ") and message in printed
    assert not (tmp_path / "s.jsonl").exists()


def _flip_byte(bundle, out, name):
    """A copy of `bundle` with the first stored byte of entry `name` flipped."""
    raw = bytearray(Path(bundle).read_bytes())
    with zipfile.ZipFile(bundle) as zf:
        info = zf.getinfo(name)
    # the local header is 30 bytes, then the name and the extra field
    start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
    raw[start] ^= 0xFF
    out.write_bytes(bytes(raw))


@pytest.mark.parametrize("entry, payload, compression, message", [
    ("params/0.npy", None, zipfile.ZIP_STORED, "params/0.npy is damaged (Bad CRC-32"),
    ("meta.json", None, zipfile.ZIP_STORED, "meta.json is damaged (Bad CRC-32"),
    ("params/0.npy", None, zipfile.ZIP_DEFLATED,
     "params/0.npy is damaged (Error -3 while decompressing data"),
    ("params/0.npy", b"not an array", zipfile.ZIP_STORED,
     "params/0.npy is not a plain .npy array"),
    ("params/0.npy", _npy(np.array([{"W": 1}], dtype=object)), zipfile.ZIP_STORED,
     "params/0.npy is not a plain .npy array (Object arrays cannot be loaded"),
], ids=["flipped-byte", "flipped-meta", "flipped-deflated", "not-npy", "pickled"])
def test_damaged_bundle_entry_is_named(tmp_path, capsys, entry, payload, compression,
                                       message):
    broken, copy = tmp_path / "broken.ngm", tmp_path / "copy.ngm"
    with zipfile.ZipFile(V1_BUNDLE) as zin, zipfile.ZipFile(copy, "w", compression) as zout:
        for item in zin.infolist():
            zout.writestr(item.filename, payload if payload and item.filename == entry
                          else zin.read(item))
    if payload is None:
        _flip_byte(copy, broken, entry)
    else:
        copy.rename(broken)
    with pytest.raises(ArtifactError) as err:
        load_model(broken)
    assert str(err.value).startswith(f"{broken}: {message}")
    for argv in (["inspect"], ["sample", "--count", "2", "--out", str(tmp_path / "s.jsonl")]):
        assert main([*argv, "--model", str(broken)]) == 1
        assert capsys.readouterr().err.startswith(f"error: load: {broken}: {message}")
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("option", ["full_block", "trainable_c0", "positional_lists"])
def test_bundle_with_removed_option_is_refused(tmp_path, option):
    off = tmp_path / "off.ngm"
    _with_config(V1_BUNDLE, off, **{option: False})
    load_model(off)
    on = tmp_path / "on.ngm"
    _with_config(V1_BUNDLE, on, **{option: True})
    with pytest.raises(ArtifactError, match=option):
        load_model(on)


def test_content_hash_matches_hashlib(tmp_path):
    f1 = tmp_path / "one.bin"
    f2 = tmp_path / "two.bin"
    f1.write_bytes(b"alpha")
    f2.write_bytes(b"beta")
    want = hashlib.sha256(b"alphabeta").hexdigest()
    assert content_hash(f1, f2) == want
    assert content_hash(f2, f1) != want


# -- command line -----------------------------------------------------------------

def fit_args(schema, dataset, model, extra=()):
    return ["fit", "--schema", schema, "--data", dataset, "--out", model,
            "--width", "8", "--blocks", "1", "--heads", "2",
            "--epochs", "2", "--batch-size", "32", "--lr", "0.01",
            *extra]


@pytest.fixture
def flat_setup(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(FLAT_DOC), encoding="utf-8")
    dataset = write_csv(tmp_path / "train.csv",
                        flat_rows(np.random.default_rng(0), 80))
    return str(schema), dataset, str(tmp_path / "model.ngm"), tmp_path


def test_cli_fit_sample_eval_flat(flat_setup, capsys):
    schema, dataset, model, tmp_path = flat_setup
    assert main(fit_args(schema, dataset, model)) == 0
    out = capsys.readouterr().out
    assert "model written to" in out and "parameters" in out

    run_log = model + ".log.jsonl"
    logged = [json.loads(l) for l in open(run_log)]
    assert len(logged) == 2 * 3  # 80 rows / batch 32 -> 3 steps, 2 epochs
    assert all(set(r) == {"epoch", "batch", "loss", "grad_norm", "dp"}
               for r in logged)

    synth = str(tmp_path / "synth.csv")
    assert main(["sample", "--model", model, "--count", "50",
                 "--out", synth, "--seed", "1"]) == 0
    lines = open(synth).read().splitlines()
    assert lines[0] == "color,size,weight" and len(lines) == 51

    report_path = str(tmp_path / "report.json")
    assert main(["eval", dataset, synth, "--schema", schema,
                 "--k", "2", "--subsets", "4", "--out", report_path]) == 0
    out = capsys.readouterr().out
    assert "marginal score" in out and "report written" in out
    report = json.load(open(report_path))
    assert 0 <= report["marginal"]["score"] <= 1000
    assert report["rows"]["synth"] == 50


def test_cli_failed_eval_report_leaves_old_report(flat_setup, monkeypatch,
                                                  capsys):
    schema, dataset, _, tmp_path = flat_setup
    report = tmp_path / "report.json"
    report.write_text("old\n", encoding="utf-8")

    def full_disk(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", full_disk)
    assert main(["eval", dataset, dataset, "--schema", schema, "--k", "2",
                 "--subsets", "2", "--out", str(report)]) == 1
    assert "cannot write report: disk full" in capsys.readouterr().err
    assert report.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.json", "schema.json", "train.csv"]


def test_cli_fit_into_missing_directory_is_a_save_error(flat_setup, capsys):
    schema, dataset, _, tmp_path = flat_setup
    model = str(tmp_path / "missing" / "m.ngm")
    assert main(fit_args(schema, dataset, model)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: save: cannot write run log: {model}.log.jsonl: ")
    assert not (tmp_path / "missing").exists()


def test_cli_failed_refit_leaves_old_bundle_and_run_log(flat_setup, monkeypatch,
                                                        capsys):
    schema, dataset, model, tmp_path = flat_setup
    assert main(fit_args(schema, dataset, model)) == 0
    run_log = Path(model + ".log.jsonl")
    old_model, old_log = Path(model).read_bytes(), run_log.read_bytes()
    failing_on_second_call(monkeypatch, trainer, "train_step",
                           FloatingPointError("non-finite training loss"))
    assert main(fit_args(schema, dataset, model, ["--seed", "1"])) == 1
    assert "error: train: epoch 0 batch 1" in capsys.readouterr().err
    assert Path(model).read_bytes() == old_model
    assert run_log.read_bytes() == old_log
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model.ngm", "model.ngm.log.jsonl", "schema.json", "train.csv"]


def test_cli_failed_bundle_save_leaves_old_bundle_and_run_log(flat_setup, monkeypatch,
                                                              capsys):
    schema, dataset, model, tmp_path = flat_setup
    assert main(fit_args(schema, dataset, model)) == 0
    run_log = Path(model + ".log.jsonl")
    old_model, old_log = Path(model).read_bytes(), run_log.read_bytes()

    def failing_save(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(artifact, "save_model", failing_save)
    assert main(fit_args(schema, dataset, model, ["--seed", "1"])) == 1
    assert "error: save: cannot write model: disk full" in capsys.readouterr().err
    assert Path(model).read_bytes() == old_model
    assert run_log.read_bytes() == old_log
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model.ngm", "model.ngm.log.jsonl", "schema.json", "train.csv"]


def test_cli_fit_checks_out_before_reading_data(flat_setup, capsys):
    schema, _, _, tmp_path = flat_setup
    model = str(tmp_path / "missing" / "m.ngm")
    assert main(fit_args(schema, str(tmp_path / "absent.csv"), model)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: save: cannot write run log: {model}.log.jsonl: ")


def test_cli_sample_count_zero_and_seeds(flat_setup, capsys):
    schema, dataset, model, tmp_path = flat_setup
    assert main(fit_args(schema, dataset, model)) == 0
    empty = str(tmp_path / "empty.csv")
    assert main(["sample", "--model", model, "--count", "0",
                 "--out", empty]) == 0
    assert open(empty).read() == "color,size,weight\n"

    s1, s2, s3 = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
    for out_path, seed in ((s1, "7"), (s2, "7"), (s3, "8")):
        assert main(["sample", "--model", model, "--count", "40",
                     "--out", out_path, "--seed", seed]) == 0
    assert open(s1).read() == open(s2).read()
    assert open(s1).read() != open(s3).read()
    capsys.readouterr()


def test_cli_declared_symbols_keep_their_json_values(tmp_path, capsys):
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "e", "type": "enum", "symbols": [1, 2, 3]},
        {"name": "b", "type": "enum", "symbols": [True, False]},
        {"name": "w", "type": "float", "bins": 3}]}
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc), encoding="utf-8")
    rng = np.random.default_rng(0)
    dataset = write_jsonl(tmp_path / "train.jsonl",
                          [{"e": int(rng.integers(1, 4)), "b": bool(rng.integers(2)),
                            "w": float(rng.uniform())} for _ in range(40)])
    model = str(tmp_path / "model.ngm")
    assert main(fit_args(str(schema), dataset, model)) == 0
    _, _, tf, _, _ = load_model(model)
    e, b, _ = tf.schema.fields
    for symbols, want in ((e.symbols, [1, 2, 3]), (b.symbols, [True, False]),
                          (tf.vocabs["r/e"], [1, 2, 3]), (tf.vocabs["r/b"], [True, False])):
        assert symbols == want and list(map(type, symbols)) == list(map(type, want))
    synth = str(tmp_path / "synth.jsonl")
    assert main(["sample", "--model", model, "--count", "30",
                 "--out", synth, "--seed", "1"]) == 0
    rows = [json.loads(line) for line in open(synth, encoding="utf-8")]
    assert len(rows) == 30
    assert {type(r["e"]) for r in rows} == {int} and {r["e"] for r in rows} <= {1, 2, 3}
    assert {type(r["b"]) for r in rows} == {bool}
    capsys.readouterr()


def test_cli_fit_is_deterministic(flat_setup, capsys):
    schema, dataset, model, tmp_path = flat_setup
    other = str(tmp_path / "model2.ngm")
    assert main(fit_args(schema, dataset, model)) == 0
    assert main(fit_args(schema, dataset, other)) == 0
    capsys.readouterr()
    # the manifests differ (they embed the output paths), but every trained
    # tensor and every table must be byte-identical
    with zipfile.ZipFile(model) as za, zipfile.ZipFile(other) as zb:
        names = sorted(n for n in za.namelist() if n != "meta.json")
        assert names == sorted(n for n in zb.namelist() if n != "meta.json")
        for name in names:
            assert za.read(name) == zb.read(name), name


def test_cli_stage_errors(flat_setup, tmp_path, capsys):
    schema, dataset, model, _ = flat_setup

    assert main(fit_args(str(tmp_path / "missing.json"), dataset, model)) == 1
    assert "error: parse:" in capsys.readouterr().err

    assert main(fit_args(schema, str(tmp_path / "missing.csv"), model)) == 1
    assert "error: ingest:" in capsys.readouterr().err

    assert main(["sample", "--model", str(tmp_path / "no.ngm"),
                 "--count", "1", "--out", str(tmp_path / "o.csv")]) == 1
    assert "error: load:" in capsys.readouterr().err

    assert main(["eval", str(tmp_path / "no.csv"), dataset,
                 "--schema", schema]) == 1
    assert "error: eval:" in capsys.readouterr().err


@pytest.mark.parametrize("extra,field", [
    (["--dp", "--noise", "nan"], "noise_multiplier"),
    (["--dp", "--noise", "inf"], "noise_multiplier"),
    (["--dp", "--clip", "nan"], "clip_norm"),
    (["--dp", "--clip", "inf"], "clip_norm"),
    (["--lr", "nan"], "lr"),
    (["--lr", "inf"], "lr"),
])
def test_cli_fit_rejects_non_finite_hyperparameters(flat_setup, capsys, extra, field):
    schema, dataset, model, _ = flat_setup
    assert main(fit_args(schema, dataset, model, extra)) == 1
    err = capsys.readouterr().err
    assert "error: train:" in err and f"{field} must be finite" in err
    assert not os.path.exists(model)


@pytest.mark.parametrize("flag,value", [
    ("--heads", "0"), ("--heads", "-2"), ("--width", "0"), ("--width", "-4")])
def test_cli_fit_rejects_bad_model_shape(flat_setup, capsys, flag, value):
    schema, dataset, model, _ = flat_setup
    assert main(fit_args(schema, dataset, model, [flag, value])) == 1
    err = capsys.readouterr().err
    assert f"error: parse: {flag[2:]} must be >= 1, got {value}" in err
    assert not os.path.exists(model)


@pytest.mark.parametrize("flag,value,name", [
    ("--k", "0", "k"), ("--k", "-1", "k"), ("--subsets", "0", "n_subsets")])
def test_cli_eval_rejects_bad_marginal_flags(flat_setup, capsys, flag, value, name):
    schema, dataset, _, tmp_path = flat_setup
    report = tmp_path / "report.json"
    assert main(["eval", dataset, dataset, "--schema", schema, flag, value,
                 "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"{name} must be >= 1, got {value}" in err
    assert not report.exists()


@pytest.mark.parametrize("argv,message", [
    (["sample", "--model", "{missing}.ngm", "--count", "-1", "--out", "{out}"],
     "error: parse: --count must be >= 0, got -1"),
    (["eval", "{missing}.csv", "{missing}.csv", "--schema", "{missing}.json",
      "--k", "0", "--out", "{out}"],
     "error: parse: --k: marginal order k must be >= 1, got 0"),
    (["eval", "{missing}.csv", "{missing}.csv", "--schema", "{missing}.json",
      "--subsets", "-3", "--out", "{out}"],
     "error: parse: --subsets: n_subsets must be >= 1, got -3"),
], ids=["sample-count", "eval-k", "eval-subsets"])
def test_cli_sample_and_eval_check_flags_before_reading(tmp_path, capsys, argv, message):
    # every input is missing, so the flag must be refused before any is read
    out = tmp_path / "out.json"
    argv = [a.format(missing=tmp_path / "missing", out=out) for a in argv]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_checks_flags_before_reading_data(flat_setup, capsys):
    schema, _, model, tmp_path = flat_setup
    missing = str(tmp_path / "missing.csv")
    assert main(fit_args(schema, missing, model, ["--heads", "0"])) == 1
    assert "error: parse: heads must be >= 1, got 0" in capsys.readouterr().err
    assert main(fit_args(schema, missing, model, ["--lr", "nan"])) == 1
    assert "error: train: lr must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "sample", "eval"])
def test_cli_negative_seed_is_refused_by_name(flat_setup, capsys, command):
    schema, dataset, model, tmp_path = flat_setup
    out = str(tmp_path / "out.csv")
    if command == "fit":
        argv = fit_args(schema, dataset, out)
    elif command == "sample":
        assert main(fit_args(schema, dataset, model)) == 0
        argv = ["sample", "--model", model, "--count", "5", "--out", out]
    else:
        argv = ["eval", dataset, dataset, "--schema", schema, "--out", out]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 1
    assert "error: parse: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("name,text,shown", [
    ("nan.csv", "color,size,weight\nred,s,1.5\nblue,l,nan\n", "'nan'"),
    ("inf.csv", "color,size,weight\nred,s,1.5\nblue,l,-inf\n", "'-inf'"),
    ("big.jsonl", '{"color": "red", "size": "s", "weight": 1.5}\n'
                  '{"color": "blue", "size": "l", "weight": 1e999}\n', "inf"),
], ids=["csv-nan", "csv-inf", "jsonl-1e999"])
def test_cli_non_finite_number_names_row_and_field(flat_setup, capsys, name,
                                                   text, shown):
    schema, dataset, model, tmp_path = flat_setup
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    want = f"record 1: field weight: not a finite number: {shown}"
    assert main(fit_args(schema, str(bad), model)) == 1
    err = capsys.readouterr().err
    assert "error: ingest:" in err and want in err
    assert not os.path.exists(model)
    assert main(["eval", str(bad), dataset, "--schema", schema]) == 1
    err = capsys.readouterr().err
    assert "error: eval:" in err and want in err
    assert main(["eval", dataset, str(bad), "--schema", schema]) == 1
    assert want in capsys.readouterr().err


def test_cli_mismatched_data_names_field(flat_setup, capsys):
    schema, _, model, tmp_path = flat_setup
    bad = write_csv(tmp_path / "bad.csv",
                    [{"color": "red", "size": "s"}])  # weight column missing
    assert main(fit_args(schema, bad, model)) == 1
    err = capsys.readouterr().err
    assert "error: ingest:" in err and "weight" in err


def test_cli_nested_fit_dp_and_inspect(tmp_path, capsys):
    schema_path = tmp_path / "user.json"
    schema_path.write_text(json.dumps(NESTED_DOC), encoding="utf-8")
    dataset = write_jsonl(tmp_path / "users.jsonl",
                          nested_rows(np.random.default_rng(1), 60))
    model = str(tmp_path / "user.ngm")
    assert main(fit_args(str(schema_path), dataset, model,
                         extra=["--dp", "--clip", "0.5", "--noise", "0.05",
                                "--seed", "3"])) == 0
    capsys.readouterr()

    logged = [json.loads(l) for l in open(model + ".log.jsonl")]
    assert all(r["dp"] == {"C": 0.5, "sigma": 0.05} for r in logged)

    _, _, _, config, manifest = load_model(model)
    assert config["dp"] is True and config["clip"] == 0.5
    assert manifest["seed"] == 3
    assert len(manifest["input_sha256"]) == 64
    assert manifest["records"] == 60

    assert main(["inspect", "--model", model]) == 0
    out = capsys.readouterr().out
    assert "codec tree:" in out and "struct[" in out
    assert "parameters:" in out
    assert "width=8 blocks=1 heads=2 seed=3" in out
    assert "input_sha256" in out

    synth = str(tmp_path / "synth.jsonl")
    assert main(["sample", "--model", model, "--count", "30",
                 "--out", synth, "--seed", "2"]) == 0
    records = [json.loads(l) for l in open(synth)]
    assert len(records) == 30
    assert all(len(r["tx"]) <= 4 for r in records)
    assert all(set(r) == {"age", "sex", "tx"} for r in records)
    capsys.readouterr()


def test_cli_csv_output_needs_flat_schema(tmp_path, capsys):
    schema_path = tmp_path / "user.json"
    schema_path.write_text(json.dumps(NESTED_DOC), encoding="utf-8")
    dataset = write_jsonl(tmp_path / "users.jsonl",
                          nested_rows(np.random.default_rng(2), 40))
    model = str(tmp_path / "user.ngm")
    assert main(fit_args(str(schema_path), dataset, model)) == 0
    capsys.readouterr()
    assert main(["sample", "--model", model, "--count", "5",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert "flat record schema" in capsys.readouterr().err


def test_cli_eval_with_rules(tmp_path, capsys):
    schema_path = tmp_path / "user.json"
    schema_path.write_text(json.dumps(NESTED_DOC), encoding="utf-8")
    rows = nested_rows(np.random.default_rng(4), 50)
    real = write_jsonl(tmp_path / "real.jsonl", rows)
    synth = write_jsonl(tmp_path / "synth.jsonl",
                        nested_rows(np.random.default_rng(5), 50))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(
        {"list": "tx", "rules": [{"rule": "constant", "field": "place"}]}),
        encoding="utf-8")
    assert main(["eval", real, synth, "--schema", str(schema_path),
                 "--k", "3", "--subsets", "5",
                 "--rules", str(rules_path)]) == 0
    out = capsys.readouterr().out
    assert "consistency" in out and "constant(place)" in out

    bad_rules = tmp_path / "bad.json"
    bad_rules.write_text("{not json", encoding="utf-8")
    assert main(["eval", real, synth, "--schema", str(schema_path),
                 "--rules", str(bad_rules)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_eval_names_an_empty_real_dataset(tmp_path, capsys):
    schema_path = tmp_path / "user.json"
    schema_path.write_text(json.dumps(NESTED_DOC), encoding="utf-8")
    rows = nested_rows(np.random.default_rng(4), 20)
    synth = write_jsonl(tmp_path / "synth.jsonl", rows)
    empty = write_jsonl(tmp_path / "empty.jsonl", [])
    no_items = write_jsonl(tmp_path / "no_items.jsonl", [dict(r, tx=[]) for r in rows])
    for real, level in ((empty, "record"), (no_items, "item")):
        assert main(["eval", real, synth, "--schema", str(schema_path),
                     "--k", "2", "--subsets", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: eval: {real}: the real dataset has no {level} rows")


def test_cli_eval_names_a_synthetic_dataset_whose_lists_are_all_empty(tmp_path, capsys):
    schema_path = tmp_path / "user.json"
    schema_path.write_text(json.dumps(NESTED_DOC), encoding="utf-8")
    rows = nested_rows(np.random.default_rng(4), 20)
    real = write_jsonl(tmp_path / "real.jsonl", rows)
    synth = write_jsonl(tmp_path / "synth.jsonl", [dict(r, tx=[]) for r in rows])
    assert main(["eval", real, synth, "--schema", str(schema_path),
                 "--k", "2", "--subsets", "2"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: eval: {synth}: the synthetic dataset has no item rows")


ENUM_LIST_DOC = {"type": "record", "name": "r", "fields": [
    {"name": "x", "type": "array", "max_len": 3,
     "items": {"type": "enum", "name": "v"}}]}


@pytest.mark.parametrize("rules, message", [
    ({"rules": 5}, "consistency rules must be a list of objects"),
    ([5], "consistency rule 0: expected an object, got int"),
    ([{"rule": "constant", "field": "x"}],
     "record 0: list field 'x' holds items that are not objects"),
    ([{"rule": "constant", "field": ["x"]}],
     "consistency rule 0: field must be a string, got list"),
], ids=["rules_not_a_list", "rule_not_an_object", "items_not_objects",
        "field_not_a_string"])
def test_cli_eval_refuses_malformed_rules(tmp_path, capsys, rules, message):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(ENUM_LIST_DOC), encoding="utf-8")
    rows = write_jsonl(tmp_path / "rows.jsonl",
                       [{"x": ["x1", "x2"]}, {"x": ["x2"]}, {"x": []}])
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(rules), encoding="utf-8")
    assert main(["eval", rows, rows, "--schema", str(schema_path), "--k", "1",
                 "--subsets", "1", "--rules", str(rules_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval: {message}")


FLAT_ROWS = [{"color": "red", "size": "s", "weight": 1.5},
             {"color": "blue", "size": "l", "weight": 2.5},
             {"color": "red", "size": "l", "weight": 0.5}]


@pytest.mark.parametrize("bad_row, message", [
    ({"color": "blue", "size": "s", "weight": "zz"},
     "record 1: field weight: not a number: 'zz'"),
    ({"color": None, "size": "s", "weight": 1.0},
     "record 1 does not conform to the schema (null value)"),
    ({"color": 3, "size": "s", "weight": 1.0},
     "record 1: field color: number 3 in a column of strings"),
    ({"color": "red", "size": True, "weight": 1.0},
     "record 1: field size: boolean True in a column of strings"),
], ids=["not-a-number", "null", "enum-number", "enum-boolean"])
def test_cli_eval_names_the_dataset_holding_a_bad_record(tmp_path, capsys, bad_row,
                                                         message):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(FLAT_DOC), encoding="utf-8")
    good = write_jsonl(tmp_path / "good.jsonl", FLAT_ROWS)
    bad = write_jsonl(tmp_path / "bad.jsonl", [FLAT_ROWS[0], bad_row])
    for pair in ([good, bad], [bad, good]):
        assert main(["eval", *pair, "--schema", str(schema), "--k", "1",
                     "--subsets", "1"]) == 1
        assert capsys.readouterr().err == f"error: eval: {bad}: {message}\n"


def test_cli_eval_names_a_non_finite_category(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(FLAT_DOC), encoding="utf-8")
    rows = [{**row, "color": k} for k, row in enumerate(FLAT_ROWS)]
    good = write_jsonl(tmp_path / "good.jsonl", rows)
    for name in ("nan", "inf", "-inf"):  # JSON NaN, Infinity, -Infinity
        bad = write_jsonl(tmp_path / "bad.jsonl", [rows[0], {**rows[1], "color": float(name)}])
        for pair in ([good, bad], [bad, good]):
            assert main(["eval", *pair, "--schema", str(schema), "--k", "1"]) == 1
            assert capsys.readouterr().err == (f"error: eval: {bad}: record 1: field color: "
                                               f"not a finite category: {name}\n")


def test_cli_eval_names_no_file_for_sibling_lists(tmp_path, capsys):
    # the schema is at fault, not either dataset
    item = {"type": "enum", "name": "v"}
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"type": "record", "name": "r", "fields": [
        {"name": "l1", "type": "array", "max_len": 2, "items": item},
        {"name": "l2", "type": "array", "max_len": 2, "items": item}]}), encoding="utf-8")
    real = write_jsonl(tmp_path / "real.jsonl", [{"l1": ["a"], "l2": ["b"]}])
    synth = write_jsonl(tmp_path / "synth.jsonl", [{"l1": [], "l2": ["b"]}])
    assert main(["eval", real, synth, "--schema", str(schema)]) == 1
    assert capsys.readouterr().err == ("error: eval: item-level metrics support one "
                                       "list field per record; found l1, l2\n")


def test_cli_eval_names_a_truncated_rules_file(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(FLAT_DOC), encoding="utf-8")
    rows = write_jsonl(tmp_path / "rows.jsonl", FLAT_ROWS)
    rules = tmp_path / "rules.json"
    rules.write_text('[{"rule": ', encoding="utf-8")
    assert main(["eval", rows, rows, "--schema", str(schema), "--rules", str(rules)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval: {rules}: rules file is not valid JSON: ")


def test_cli_fit_and_eval_name_a_schema_without_fields(tmp_path, capsys):
    schema = tmp_path / "empty.json"
    schema.write_text(json.dumps({"type": "record", "name": "u", "fields": []}),
                      encoding="utf-8")
    rows = write_jsonl(tmp_path / "rows.jsonl", FLAT_ROWS)
    want = f"error: parse: {schema}: record u: needs a non-empty fields list\n"
    assert main(fit_args(str(schema), rows, str(tmp_path / "m.ngm"))) == 1
    assert capsys.readouterr().err == want
    assert main(["eval", rows, rows, "--schema", str(schema)]) == 1
    assert capsys.readouterr().err == want


def test_cli_parser_is_built_once_and_parses_afresh():
    from nestgen.cli import build_parser
    assert build_parser() is build_parser()
    sample = build_parser().parse_args(["sample", "--model", "m", "--count", "3", "--out", "o"])
    inspect = build_parser().parse_args(["inspect", "--model", "n"])
    assert vars(inspect) == {"command": "inspect", "model": "n"}
    assert sample.model == "m" and sample.count == 3 and sample.seed == 0


def test_cli_log_env_controls_verbosity(flat_setup, capsys, caplog, monkeypatch):
    schema, dataset, model, _ = flat_setup
    monkeypatch.setenv("NESTGEN_LOG", "info")
    with caplog.at_level(logging.INFO, logger="nestgen"):
        assert main(fit_args(schema, dataset, model)) == 0
    assert "ingested 80 records" in caplog.text
    capsys.readouterr()

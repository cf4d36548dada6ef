"""Self-describing model bundles.

A model artifact is a single zip file holding one meta.json plus one .npy
entry per parameter tensor and per quantile table. The bytes are
deterministic: fixed entry order, stored (uncompressed) payloads, constant
timestamps, and sorted JSON keys, so saving the same model twice gives
identical files and a load/save cycle round-trips bitwise. A bundle is
written beside its target and moved into place only when complete.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import secrets
import zipfile
import zlib

import numpy as np

from .codecs.primitives import QuantileTable
from .data import Transform
from .schema import compile_schema, parse_schema, serialize_schema

FORMAT = "nestgen-model"
VERSION = 1
_EPOCH = (1980, 1, 1, 0, 0, 0)
# compile options of earlier versions; a bundle that turned one on holds
# parameters this version has no place for
REMOVED_OPTIONS = ("full_block", "trainable_c0", "positional_lists")


class ArtifactError(ValueError):
    pass


def _npy_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), version=(1, 0))
    return buf.getvalue()


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Open a new file beside `path` for writing (`mode` as for open). On a
    clean exit it is flushed to disk and moved over `path` with os.replace,
    so `path` holds either its old content or all of the new; on an error
    it is removed and `path` is left as it was."""
    folder, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(folder, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_model(path, store, transform: Transform, config: dict,
               manifest: dict | None = None) -> None:
    """Write the bundle: schema, vocabularies, quantile tables, parameters,
    compile config, and the optional run manifest."""
    params = {p: f"params/{i}.npy" for i, p in enumerate(sorted(store.paths()))}
    tables = {p: {"file": f"tables/{i}.npy", "integer": t.integer}
              for i, (p, t) in enumerate(sorted(transform.tables.items()))}
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "schema": serialize_schema(transform.schema, as_text=False),
        "vocabs": transform.vocabs,
        "tables": tables,
        "params": params,
        "config": config,
        "manifest": manifest or {},
    }
    entries = [("meta.json", json.dumps(meta, sort_keys=True,
                                        ensure_ascii=False).encode("utf-8"))]
    for p in sorted(params):
        entries.append((params[p], _npy_bytes(store[p].data)))
    for p in sorted(tables):
        entries.append((tables[p]["file"],
                        _npy_bytes(transform.tables[p].q)))
    with atomic_write(path) as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, payload in entries:
            info = zipfile.ZipInfo(name, date_time=_EPOCH)
            info.external_attr = 0o644 << 16
            zf.writestr(info, payload)


def load_model(path):
    """Read a bundle back. Returns (codec, store, transform, config,
    manifest); the codec is recompiled from the stored schema and config,
    then the stored parameters replace the fresh initialisation."""
    try:
        zf = zipfile.ZipFile(path)
    except (OSError, zipfile.BadZipFile) as e:
        raise ArtifactError(f"{path}: not a readable model bundle ({e})") from None
    with zf:
        try:
            meta = json.loads(_entry(zf, path, "meta.json"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ArtifactError(f"{path}: meta.json is not valid JSON") from None
        if not isinstance(meta, dict) or meta.get("format") != FORMAT:
            raise ArtifactError(f"{path}: not a {FORMAT} bundle")
        if meta.get("version") != VERSION:
            raise ArtifactError(f"{path}: unsupported bundle version "
                                f"{meta.get('version')!r}")
        config, vocabs, manifest, specs, params = (_field(path, meta, key, dict) for key in (
            "config", "vocabs", "manifest", "tables", "params"))
        width, blocks, heads, seed = (_field(path, {"seed": 0} | config, key, int,
                                             "meta.json config")
                                      for key in ("width", "blocks", "heads", "seed"))
        for option in REMOVED_OPTIONS:
            if config.get(option):
                raise ArtifactError(f"{path}: the bundle was compiled with "
                                    f"{option}, which is no longer supported")
        schema = parse_schema(_field(path, meta, "schema", dict))
        vocabs = {p: _field(path, vocabs, p, list, "meta.json vocabs") for p in vocabs}
        tables = {}
        for p in specs:
            spec, where = _field(path, specs, p, dict, "meta.json tables"), f"meta.json table {p!r}"
            q = _read_npy(zf, path, _field(path, spec, "file", str, where))
            tables[p] = QuantileTable(q, integer=_field(path, spec, "integer", bool, where))
        state = {p: _read_npy(zf, path, _field(path, params, p, str, "meta.json params"))
                 for p in params}
        codec, store = compile_schema(schema, width=width, blocks=blocks, heads=heads,
                                      seed=seed, tables=tables)
        try:
            store.load_state(state)
        except ValueError as e:
            raise ArtifactError(f"{path}: {e}") from None
        return codec, store, Transform(schema, vocabs, tables), config, manifest


_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "an integer"}


def _field(path, obj, key, kind, where="meta.json") -> object:
    """obj[key], which must be of type `kind` (an integer is no boolean),
    from the part of the meta.json of the bundle at `path` that `where`
    names."""
    if key not in obj:
        raise ArtifactError(f"{path}: {where} has no key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ArtifactError(f"{path}: {where} {key!r} must be {_KINDS[kind]}, "
                            f"got {json.dumps(value)[:40]}")
    return value


def _entry(zf, path, name) -> bytes:
    """The bytes of entry `name` of the open bundle at `path`."""
    try:
        return zf.read(name)
    except KeyError:
        raise ArtifactError(f"{path}: missing {name}") from None
    except (zipfile.BadZipFile, zlib.error) as e:
        raise ArtifactError(f"{path}: {name} is damaged ({e})") from None


def _read_npy(zf, path, name) -> np.ndarray:
    """Entry `name` of the open bundle at `path`, a plain .npy array."""
    data = _entry(zf, path, name)
    try:
        return np.lib.format.read_array(io.BytesIO(data))
    except ValueError as e:
        raise ArtifactError(f"{path}: {name} is not a plain .npy array ({e})") from None


def content_hash(*paths) -> str:
    """sha256 over the concatenated bytes of the given files."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()

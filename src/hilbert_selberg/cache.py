"""Disk cache for expensive intermediates, keyed by a content hash.

Keys hash the parameter set plus a format version and the package
version, so a changed payload type or code revision produces a fresh
key.  A key may leave out a parameter whose stored value can serve a
range of requests; `usable` then says whether the stored entry serves
this one, and an entry it rejects is rebuilt and replaced, so each key
holds one entry.  The payload is a pickle, which is fine for a local
scratch cache; the format version changes whenever a pickled class
moves to another module.  Resolution order for the directory: explicit
argument, then the HILBERT_SELBERG_CACHE environment variable, then no
caching at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Callable, Optional, TypeVar

from . import __version__
from .errors import ValidationError

_FORMAT = 5

T = TypeVar("T")


def cache_root(cache_dir: Optional[str] = None) -> Optional[Path]:
    chosen = cache_dir or os.environ.get("HILBERT_SELBERG_CACHE")
    if not chosen:
        return None
    root = Path(chosen)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot use cache directory {chosen}: {exc.strerror}")
    return root


def cache_key(kind: str, params: dict) -> str:
    material = json.dumps(
        {"kind": kind, "format": _FORMAT, "version": __version__,
         "params": {k: repr(v) for k, v in sorted(params.items())}},
        sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()[:24]


def get_or_compute(kind: str, params: dict, builder: Callable[[], T],
                   cache_dir: Optional[str] = None,
                   usable: Optional[Callable[[T], bool]] = None) -> T:
    root = cache_root(cache_dir)
    if root is None:
        return builder()
    path = root / f"{kind}-{cache_key(kind, params)}.pkl"
    if path.exists():
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except Exception:
            path.unlink(missing_ok=True)
        else:
            if usable is None or usable(value):
                return value
    value = builder()
    # one temporary file per writer: processes sharing a directory never
    # write into the same file, and each entry appears whole
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            pickle.dump(value, fh, protocol=4)
        tmp.replace(path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ValidationError(
            f"cannot write cache entry {path}: {exc.strerror}")
    return value

"""Disk cache for expensive intermediates, keyed by a content hash.

Keys hash the full parameter set plus a format version and the package
version, so any change to the inputs or the code revision produces a
fresh key; a stale entry can never be served for a new configuration.
The payload is a pickle, which is fine for a local scratch cache.
Resolution order for the directory: explicit argument, then the
HILBERT_SELBERG_CACHE environment variable, then no caching at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Callable, Optional, TypeVar

from . import __version__

_FORMAT = 2

T = TypeVar("T")


def cache_root(cache_dir: Optional[str] = None) -> Optional[Path]:
    chosen = cache_dir or os.environ.get("HILBERT_SELBERG_CACHE")
    if not chosen:
        return None
    root = Path(chosen)
    root.mkdir(parents=True, exist_ok=True)
    return root


def cache_key(kind: str, params: dict) -> str:
    material = json.dumps(
        {"kind": kind, "format": _FORMAT, "version": __version__,
         "params": {k: repr(v) for k, v in sorted(params.items())}},
        sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()[:24]


def get_or_compute(kind: str, params: dict, builder: Callable[[], T],
                   cache_dir: Optional[str] = None) -> T:
    root = cache_root(cache_dir)
    if root is None:
        return builder()
    path = root / f"{kind}-{cache_key(kind, params)}.pkl"
    if path.exists():
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            path.unlink(missing_ok=True)
    value = builder()
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(value, fh, protocol=4)
    tmp.replace(path)
    return value

"""The JSON codec of task files and model checkpoints.

A complex array is written as nested lists of [re, im] pairs and a real array
as nested lists; both reload bit-exactly. Every file starts with
"schema_version": 1, and reading one checks the version and, on access, that
each field is present.
"""

from __future__ import annotations

import json

import numpy as np

from .exceptions import ConfigurationError

SCHEMA_VERSION = 1


def _encode(arr: np.ndarray) -> list:
    """json.dump hook for arrays: complex entries become [re, im] pairs."""
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.tolist()


def complex_array(pairs) -> np.ndarray:
    """Inverse of the [re, im] encoding."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class _Fields(dict):
    """A loaded document whose missing field is a configuration error."""

    def __init__(self, doc: dict, path: str):
        super().__init__(doc)
        self.path = path

    def __missing__(self, key):
        raise ConfigurationError(f"{self.path}: missing field {key!r}")


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **doc}, fh, default=_encode)


def read_json(path: str) -> dict:
    """Load a document written by write_json; any other schema_version is rejected."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}")
    return _Fields(doc, path)

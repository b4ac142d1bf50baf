"""The JSON codec of task files and model checkpoints.

A complex array is written as nested lists of [re, im] pairs and a real array
as nested lists; both reload bit-exactly. Every file starts with
"schema_version": 1, and reading one checks the version and, on access, that
each field is present and, through the typed accessors, of the right type and
shape. Every file the package writes, reports and CSVs too, goes through
atomic_write: a failed write leaves the old file whole and no temporary file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .exceptions import ConfigurationError

SCHEMA_VERSION = 1


def _encode(arr: np.ndarray) -> list:
    """json.dump hook for arrays: complex entries become [re, im] pairs."""
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.tolist()


def checked_array(value, shape: tuple, where: str, complex_: bool = False) -> np.ndarray:
    """`value` as a real array of `shape`, or as a complex one from [re, im]
    pairs; None in `shape` matches any length. `where` names it in the error."""
    expected = (*shape, 2) if complex_ else tuple(shape)
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    fits = arr.ndim == len(expected) and all(
        want in (None, got) for got, want in zip(arr.shape, expected))
    if arr.dtype.kind not in "iuf" or not fits:
        found = f"shape {arr.shape}" if arr.dtype.kind in "iuf" else "non-numeric or ragged entries"
        shown = tuple("*" if want is None else want for want in expected)
        raise ConfigurationError(f"{where}: expected a numeric array of shape {shown}, got {found}")
    arr = arr.astype(float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ConfigurationError(f"{where}: expected finite entries, got {bad[0]}")
    # a view, not re + 1j * im: that arithmetic turns a -0.0 part into +0.0
    return arr.view(complex)[..., 0] if complex_ else arr


class _Fields(dict):
    """A loaded document whose missing or malformed field is a configuration error."""

    def __init__(self, doc: dict, path: str):
        super().__init__(doc)
        self.path = path

    def __missing__(self, key):
        raise ConfigurationError(f"{self.path}: missing field {key!r}")

    def _typed(self, key: str, types: tuple, kind: str):
        value = self[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigurationError(f"{self.path}: field {key!r} must be {kind}, got {value!r}")
        return value

    def integer(self, key: str, minimum: float = -np.inf) -> int:
        value = self._typed(key, (int,), "an integer")
        if value < minimum:
            raise ConfigurationError(f"{self.path}: field {key!r} must be >= {minimum}, got {value}")
        return value

    def number(self, key: str) -> float:
        return float(self._typed(key, (int, float), "a number"))

    def array(self, key: str, shape: tuple, complex_: bool = False) -> np.ndarray:
        return checked_array(self[key], shape, f"{self.path}: field {key!r}", complex_)


def atomic_write(path: str, text: str) -> None:
    """Write text beside path, then rename it over path; on failure, remove what it wrote."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    """Encode doc under the schema version in full, then write it atomically."""
    atomic_write(path, json.dumps({"schema_version": SCHEMA_VERSION, **doc}, default=_encode))


def load_json(path: str):
    """json.load of path. Text it cannot decode or parse is a ConfigurationError with the
    decoder's message, or one naming the file past the parser's nesting or digit limits."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(str(exc)) from None
    except (RecursionError, ValueError) as exc:  # the ValueError of int()'s digit limit
        what = "nesting" if isinstance(exc, RecursionError) else "integer literal"
        raise ConfigurationError(f"{path}: JSON {what} beyond the parser's limits") from None


def read_json(path: str) -> dict:
    """Load a document written by write_json; any other schema_version is rejected."""
    doc = load_json(path)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}")
    return _Fields(doc, path)

"""Lossless JSON codec for registered dataclasses, tuples, and arrays.

Grew out of the experiment artifact cache (PR 2) and now also backs the
serving layer's monitor snapshots, so it lives in :mod:`repro.utils`
where both :mod:`repro.core` and :mod:`repro.experiments` can use it
without layering inversions. :mod:`repro.experiments.reporting` re-exports
every name for backward compatibility.

Encoding rules (see :func:`to_jsonable`):

- registered dataclasses → ``{"__dataclass__": name, "fields": {...}}``;
- tuples → ``{"__tuple__": [...]}`` (decode back as tuples);
- numpy arrays → ``{"__ndarray__": {"dtype", "data"}}``, plus
  ``"shape"`` for an empty array of more than one dimension (whose
  ``tolist()`` cannot imply it); numpy scalars unwrap to Python scalars
  (this module imports numpy only to decode an array, so a process
  without numpy values never loads it);
- dict/list/str/int/float/bool/None pass through (dict keys must be str).

Floats survive a ``json.dumps``/``loads`` round trip bit-exactly (JSON
encodes them via ``repr``), which is what makes both cached experiment
artifacts and monitor snapshots reproducible to the bit.
"""

from __future__ import annotations

import dataclasses
import sys

#: Registered dataclass types, by class name — the JSON codec's universe.
_RESULT_TYPES: dict = {}

#: Registered class → its field names, cached so :func:`to_jsonable`
#: never calls ``dataclasses.fields`` on the hot path.
_FIELD_NAMES: dict = {}

#: Exact types :func:`to_jsonable` returns as they are. Subclasses (e.g.
#: ``np.float64``, a ``float``) take the generic path.
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def register_result_type(cls):
    """Register ``cls`` (a dataclass) with the JSON codec; returns it.

    Names must be unique: payload tags are bare class names, so two
    different classes sharing one would make decoding ambiguous (and
    silently corrupt monitor snapshots). Re-registering the *same* class
    is a no-op, so module re-imports stay safe.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    existing = _RESULT_TYPES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"a different dataclass named {cls.__name__!r} is already "
            f"registered with the result codec ({existing.__module__}."
            f"{existing.__qualname__}); rename one of them"
        )
    _RESULT_TYPES[cls.__name__] = cls
    _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return cls


def registered_result_types() -> dict:
    """Name → class for every codec-registered result dataclass."""
    return dict(_RESULT_TYPES)


def to_jsonable(obj):
    """Encode ``obj`` into JSON-serializable primitives, losslessly.

    Handles registered dataclasses (tagged with ``__dataclass__``),
    tuples (tagged, so they decode back as tuples), numpy arrays and
    scalars, and plain dict/list/str/int/float/bool/None.

    Dispatches on the exact type first; anything else (numpy values,
    container subclasses, unencodable input) takes
    :func:`_to_jsonable_generic`, which produces the same output.
    """
    cls = type(obj)
    if cls in _PLAIN_TYPES:
        return obj
    if cls is list:
        return [to_jsonable(v) for v in obj]
    if cls is dict:
        encoded = {}
        for key, value in obj.items():
            if type(key) is not str and not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            encoded[key] = to_jsonable(value)
        return encoded
    if cls is tuple:
        return {"__tuple__": [to_jsonable(v) for v in obj]}
    names = _FIELD_NAMES.get(cls)
    if names is not None:
        return {
            "__dataclass__": cls.__name__,
            "fields": {name: to_jsonable(getattr(obj, name)) for name in names},
        }
    return _to_jsonable_generic(obj)


def _to_jsonable_generic(obj):
    """:func:`to_jsonable` by ``isinstance`` checks, for every type the
    exact-type dispatch does not cover."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _RESULT_TYPES:
            raise TypeError(
                f"{name} is not registered with the result codec; "
                "decorate it with @register_result_type"
            )
        return {
            "__dataclass__": name,
            "fields": {
                f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    # No numpy value can exist unless numpy was imported.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray):
            spec = {"dtype": str(obj.dtype), "data": obj.tolist()}
            if not obj.size and obj.ndim > 1:
                # ``tolist()`` of an empty array drops every dimension
                # after the first zero; carry the shape to get them back.
                spec["shape"] = list(obj.shape)
            return {"__ndarray__": spec}
        if isinstance(obj, (np.integer, np.floating, np.bool_)):
            return obj.item()
    if isinstance(obj, tuple):
        return {"__tuple__": [to_jsonable(v) for v in obj]}
    if isinstance(obj, list):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        encoded = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            encoded[key] = to_jsonable(value)
        return encoded
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} for the result codec")


def from_jsonable(obj):
    """Inverse of :func:`to_jsonable`."""
    if isinstance(obj, dict):
        if "__dataclass__" in obj:
            name = obj["__dataclass__"]
            cls = _RESULT_TYPES.get(name)
            if cls is None:
                raise TypeError(f"unknown result dataclass {name!r} in payload")
            fields = {k: from_jsonable(v) for k, v in obj["fields"].items()}
            return cls(**fields)
        if "__ndarray__" in obj:
            import numpy as np

            spec = obj["__ndarray__"]
            array = np.asarray(spec["data"], dtype=np.dtype(spec["dtype"]))
            if "shape" in spec:
                return array.reshape(spec["shape"])
            return array
        if "__tuple__" in obj:
            return tuple(from_jsonable(v) for v in obj["__tuple__"])
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj

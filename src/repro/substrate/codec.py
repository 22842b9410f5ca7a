"""Object tree <-> columnar payload, pinned byte-identical to pickle.

:func:`encode` walks an arbitrary result object — a trial row dict, a
:class:`~repro.spe.records.SampleBatch`, a full
:class:`~repro.nmo.profiler.ProfileResult` — and splits it into

* a JSON-safe **meta tree** (scalars, strings, containers, and typed
  markers for tuples, enums, registered dataclasses, numpy scalars),
* a flat list of **columns**: every ndarray leaf, lifted out and
  replaced by a ``{"__col__": i}`` placeholder.

Both halves go through :func:`repro.substrate.format.encode_payload`;
:func:`decode` reverses the walk, handing ndarray leaves back as
zero-copy views into the payload buffer.  The round trip is *pickle
byte-identical*: ``pickle.dumps(decode(encode(x))) == pickle.dumps(x)``
for every supported type, which is what lets a result shipped through
shared memory stand in for the pickled one (pinned by
``tests/substrate/test_parity.py``).

Dataclasses and enums participate via a registry.  Types register
themselves at definition site with :func:`register` (e.g.
``SampleBatch``, ``ProfileResult``, ``ThreadStats``); decoding a payload
that names a type whose module is not imported yet imports it lazily —
payloads are self-describing, not import-order-dependent.

:func:`encode` returns ``None`` for objects containing anything outside
this vocabulary (open file handles, arbitrary classes, object-dtype
arrays); callers fall back to pickle.  That fallback is part of the
contract: the substrate is an accelerated representation, never a
constraint on what a trial may return.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
from typing import Any

import numpy as np

from repro.errors import SubstrateError
from repro.substrate.format import decode_payload, encode_payload

#: registered dataclass/enum types, keyed by "module.QualName"
_REGISTRY: dict[str, type] = {}

# marker keys (chosen to be implausible as real dict keys; any dict
# containing one is encoded through the escaped-items form)
_TUPLE = "__tuple__"
_COL = "__col__"
_DC = "__dataclass__"
_ENUM = "__enum__"
_NPSCALAR = "__npscalar__"
_BYTES = "__bytes__"
_ITEMS = "__items__"
_MARKERS = frozenset(
    {_TUPLE, _COL, _DC, _ENUM, _NPSCALAR, _BYTES, _ITEMS}
)


def register(cls: type) -> type:
    """Class decorator: make a dataclass or enum substrate-encodable.

    Idempotent; the class is keyed by ``module.QualName``, which is what
    encoded payloads carry, so renaming or moving a registered type is a
    format change.
    """
    if not (dataclasses.is_dataclass(cls)
            or (isinstance(cls, type) and issubclass(cls, enum.Enum))):
        raise SubstrateError(
            f"only dataclasses and enums register with the substrate "
            f"codec, got {cls!r}"
        )
    _REGISTRY[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return cls


def _lookup(name: str) -> type:
    """Resolve a registered type name, importing its module if needed."""
    cls = _REGISTRY.get(name)
    if cls is not None:
        return cls
    module = name.rsplit(".", 1)[0]
    try:
        importlib.import_module(module)
    except ImportError as exc:
        raise SubstrateError(
            f"payload names type {name!r} from unimportable module"
        ) from exc
    cls = _REGISTRY.get(name)
    if cls is None:
        raise SubstrateError(
            f"payload names unregistered type {name!r}"
        )
    return cls


class _Unencodable(Exception):
    """Internal: the tree contains something outside the vocabulary."""


def _to_meta(obj: Any, columns: list[np.ndarray]) -> Any:
    # exact-type checks throughout: a subclass (IntEnum, OrderedDict,
    # namedtuple) pickles differently from its base, so anything that is
    # not *exactly* a known type must register or fall back to pickle
    if obj is None:
        return None
    t = type(obj)
    if t in (bool, str, int, float):
        # json round-trips Python ints exactly and floats via shortest
        # repr (including nan/inf), so plain emission is byte-faithful
        return obj
    if isinstance(obj, enum.Enum):  # before int/str subclass rejection
        name = f"{t.__module__}.{t.__qualname__}"
        if _REGISTRY.get(name) is not t:
            raise _Unencodable
        return {_ENUM: [name, _to_meta(obj.value, columns)]}
    if t is np.ndarray:
        if obj.dtype.hasobject:
            raise _Unencodable
        columns.append(obj)
        return {_COL: len(columns) - 1}
    if isinstance(obj, np.generic):
        return {_NPSCALAR: [obj.dtype.str, obj.tobytes().hex()]}
    if t is bytes:
        columns.append(np.frombuffer(obj, dtype=np.uint8))
        return {_BYTES: len(columns) - 1}
    if t is tuple:
        return {_TUPLE: [_to_meta(v, columns) for v in obj]}
    if t is list:
        return [_to_meta(v, columns) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = f"{t.__module__}.{t.__qualname__}"
        if _REGISTRY.get(name) is not t:
            raise _Unencodable
        fields = {
            f.name: _to_meta(getattr(obj, f.name), columns)
            for f in dataclasses.fields(obj)
        }
        return {_DC: name, "fields": fields}
    if t is dict:
        plain = all(type(k) is str for k in obj) and not (
            set(obj) & _MARKERS
        )
        if plain:
            return {k: _to_meta(v, columns) for k, v in obj.items()}
        return {
            _ITEMS: [
                [_to_meta(k, columns), _to_meta(v, columns)]
                for k, v in obj.items()
            ]
        }
    raise _Unencodable


def _from_meta(node: Any, columns: list[np.ndarray], strings: dict) -> Any:
    # `strings` interns every decoded string within one payload: equal
    # strings decode to one shared object, mirroring how real result
    # graphs share interned literals — pickle memoises by object
    # identity, so matching the sharing keeps re-pickles byte-identical
    if type(node) is str:
        return strings.setdefault(node, node)
    if isinstance(node, list):
        return [_from_meta(v, columns, strings) for v in node]
    if not isinstance(node, dict):
        return node
    if _COL in node:
        return columns[node[_COL]]
    if _BYTES in node:
        return columns[node[_BYTES]].tobytes()
    if _TUPLE in node:
        return tuple(_from_meta(v, columns, strings) for v in node[_TUPLE])
    if _NPSCALAR in node:
        dtype_str, hexed = node[_NPSCALAR]
        return np.frombuffer(bytes.fromhex(hexed), dtype=dtype_str)[0]
    if _ENUM in node:
        name, value = node[_ENUM]
        return _lookup(name)(_from_meta(value, columns, strings))
    if _DC in node:
        cls = _lookup(node[_DC])
        fields = {
            strings.setdefault(k, k): _from_meta(v, columns, strings)
            for k, v in node["fields"].items()
        }
        return _construct_dataclass(cls, fields)
    if _ITEMS in node:
        return {
            _from_meta(k, columns, strings): _from_meta(v, columns, strings)
            for k, v in node[_ITEMS]
        }
    return {
        strings.setdefault(k, k): _from_meta(v, columns, strings)
        for k, v in node.items()
    }


def _construct_dataclass(cls: type, fields: dict[str, Any]):
    """Rebuild a dataclass instance without re-running validation.

    ``__init__``/``__post_init__`` may coerce or reject values (frozen
    specs validating invariants); the payload already holds the *final*
    field values, so they are restored directly — exactly what pickle
    does when it restores ``__dict__``.
    """
    inst = object.__new__(cls)
    if getattr(cls, "__slots__", None):
        for k, v in fields.items():
            object.__setattr__(inst, k, v)
    else:
        inst.__dict__.update(fields)
    return inst


def encodable(obj: Any) -> bool:
    """Whether :func:`encode` would succeed (no payload is built)."""
    try:
        _to_meta(obj, [])
        return True
    except (_Unencodable, SubstrateError):
        return False


def encode(obj: Any) -> bytes | None:
    """Encode an object into a columnar payload; ``None`` if it cannot
    be represented (callers fall back to pickle)."""
    columns: list[np.ndarray] = []
    try:
        meta = _to_meta(obj, columns)
    except (_Unencodable, SubstrateError):
        return None
    return encode_payload(meta, columns)


def decode(buf, copy: bool = False) -> Any:
    """Decode a columnar payload produced by :func:`encode`.

    ndarray leaves are zero-copy views into ``buf`` unless ``copy=True``
    (views into read-only buffers come back non-writable, like any
    :func:`numpy.frombuffer` view).
    """
    meta, columns = decode_payload(buf, copy=copy)
    return _from_meta(meta, columns, {})

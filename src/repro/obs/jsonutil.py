"""Shared JSON helpers: canonical encoding, record codec and report writer.

:func:`canonical_json` is the one deterministic encoding: sorted keys,
no spaces, in one pass of the C encoder.  The execution subsystem's
keys, cache entries and journal lines (:mod:`repro.exec`) and the
trace exporter's ``trace.jsonl`` (:mod:`repro.obs.trace`) are all
written by it.  Numpy scalars need no walk before encoding: the encoder
writes ``np.float64``, a ``float`` subclass, with ``float``'s repr, and
hands every other numpy scalar to :func:`unwrap_scalar`, its
``default=`` hook, which unwraps it through ``.item()``; tuples encode
as arrays natively.  The validate, chaos, ESS, bench and redteam
reports and the reproducer fixtures are all written by
:func:`write_json`.

This is also the one place a config record's JSON form is decided.
:func:`to_jsonable` and :func:`from_jsonable` map a dataclass record
to and from its JSON form by walking its fields.  The serializable
records (``ScenarioConfig``, ``FaultPlan``, ``TraceConfig``,
``EssConfig``, the redteam genome, verdict and campaign records, ...)
take their ``to_dict``/``from_dict`` from :class:`JsonRecord`, and the
reproducer fixture and campaign report build their schema-tagged forms
on the same two functions.  A point's identity is the JSON form of its
``ScenarioConfig``, so these few functions decide every cache key and
journal line.  :func:`store_floats` makes that identity blind to the
number type a caller used: ``ScenarioConfig`` and every record nested
in its key call it at construction, so ``load=1`` and ``load=1.0``
build the same record, key and row.  :func:`unwrap_scalar` stays
record-blind: a record is taken through ``to_dict`` before it is
encoded.

The helpers live here, in ``obs`` — the lowest observability layer —
so ``exec`` can import them without ``obs`` ever importing upward.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import numbers
import pathlib
import types
import typing

__all__ = [
    "JsonRecord",
    "canonical_json",
    "from_jsonable",
    "store_floats",
    "to_jsonable",
    "unwrap_scalar",
    "write_json",
]


def unwrap_scalar(value: typing.Any) -> typing.Any:
    """The ``default=`` hook of the compact encodes: numpy scalars to Python.

    :func:`canonical_json` and the results archive
    (:func:`repro.experiments.io.save_results`) pass it to the encoder,
    which calls it only for values it cannot write itself:
    anything exposing ``.item()`` (numpy scalars, 0-d arrays) is
    unwrapped, and any other type raises ``TypeError``, as the encoder
    would without a hook.
    """
    item = getattr(value, "item", None)
    if item is None:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
    return item()


def _unwrap(value: typing.Any) -> typing.Any:
    # looks ``unwrap_scalar`` up per call, so a hook patched over the
    # module attribute reaches the shared encoder too
    return unwrap_scalar(value)


#: the one encoder behind :func:`canonical_json`, built once
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_unwrap
)


def canonical_json(value: typing.Any) -> str:
    """Deterministic JSON encoding: sorted keys, no spaces, numpy unwrapped.

    The same bytes as ``json.dumps(value, sort_keys=True,
    separators=(",", ":"), default=unwrap_scalar)``, through one
    module-level encoder instead of a new one per call.
    """
    return _CANONICAL.encode(value)


def write_json(path: str | pathlib.Path, payload: typing.Any) -> pathlib.Path:
    """Write indent-2, key-sorted JSON plus a newline, creating parents."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


#: exact types :func:`to_jsonable` keeps as they are without a call
_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value: typing.Any) -> typing.Any:
    """A record's JSON form: every field, nested records as dicts.

    Tuples and lists become lists; any other value is kept as is.
    Field and item values of the exact types in :data:`_PLAIN` (most
    config fields) are copied without a recursive call, which would
    return them unchanged; a subclass of one still takes the call.
    """
    if hasattr(value, "__dataclass_fields__"):
        out = {}
        for name in _names(type(value)):
            field = getattr(value, name)
            out[name] = field if type(field) in _PLAIN else to_jsonable(field)
        return out
    if isinstance(value, (tuple, list)):
        return [v if type(v) in _PLAIN else to_jsonable(v) for v in value]
    return value


def from_jsonable(
    cls: type, data: typing.Mapping[str, typing.Any]
) -> typing.Any:
    """Rebuild a ``cls`` record from its :func:`to_jsonable` form.

    Missing keys take the field defaults and unknown keys raise
    ``TypeError``, as ``cls(**data)`` does.  A value of the wrong shape
    for its field's type (a string where a record or a tuple belongs)
    raises ``TypeError``; the record's own checks raise ``ValueError``.
    """
    if not isinstance(data, collections.abc.Mapping):
        raise TypeError(
            f"{cls.__name__} needs a JSON object, got {type(data).__name__}"
        )
    kwargs = dict(data)
    for name, decode in _decoders(cls):
        if name in kwargs:
            kwargs[name] = decode(kwargs[name])
    return cls(**kwargs)


def store_floats(record: typing.Any) -> None:
    """Store each integer in a ``float`` field as a ``float``.

    ``record`` is a dataclass instance, frozen or not; a field typed
    ``float`` or ``float | None`` counts, and so does any integer a key
    would encode without a decimal point: ``int`` and the numpy integer
    types, but not ``bool``.  Called from ``__post_init__``.
    """
    for name in _float_fields(type(record)):
        value = getattr(record, name)
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            object.__setattr__(record, name, float(value))


class JsonRecord:
    """Mixin giving a dataclass record ``to_dict``/``from_dict``.

    ``to_dict`` is :func:`to_jsonable` and ``from_dict`` is
    :func:`from_jsonable`; a record whose JSON form differs from its
    fields overrides ``to_dict`` on top of :func:`to_jsonable`.
    """

    __slots__ = ()

    to_dict = to_jsonable
    from_dict = classmethod(from_jsonable)


@functools.cache
def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.cache
def _decoders(cls: type) -> tuple[tuple[str, typing.Callable], ...]:
    """``(field, decode)`` for the fields whose JSON form differs."""
    hints = typing.get_type_hints(cls)
    pairs = ((name, _decoder(hints[name])) for name in _names(cls))
    return tuple((name, decode) for name, decode in pairs if decode)


@functools.cache
def _float_fields(cls: type) -> tuple[str, ...]:
    """The fields of ``cls`` typed ``float`` or ``float | None``."""
    hints = typing.get_type_hints(cls)
    return tuple(
        name for name in _names(cls) if hints[name] in (float, float | None)
    )


def _decoder(hint: typing.Any) -> typing.Callable | None:
    """How to rebuild a field of type ``hint`` from JSON; None = as is."""
    if dataclasses.is_dataclass(hint):
        return functools.partial(from_jsonable, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        # only ``X | None`` unions: anything else fails loudly here
        (arg,) = (a for a in args if a is not type(None))
        inner = _decoder(arg)
        return inner and (lambda v: None if v is None else inner(v))
    if origin is tuple:
        # ``tuple[X, ...]`` decodes each item; fixed-length tuples hold
        # plain values
        item = _decoder(args[0]) if args[-1] is Ellipsis else None
        return functools.partial(_tuple, item)
    return None


def _tuple(item: typing.Callable | None, value: typing.Any) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(
            f"expected a JSON array, got {type(value).__name__}"
        )
    return tuple(value) if item is None else tuple(map(item, value))

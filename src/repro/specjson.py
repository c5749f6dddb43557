"""One strict JSON codec for every declarative spec dataclass.

Cluster, sweep, federation, population and SLO-objective specs all
derive from :class:`JsonSpec` and name their error class once::

    @dataclass(frozen=True)
    class DeviceSpec(JsonSpec, error=ClusterSpecError):
        ...

The codec then reads everything else from ``dataclasses.fields`` and
the type hints: nested spec dataclasses, ``X | None``,
``tuple[X, ...]`` (from a list or a tuple) and ``dict[str, Any]``;
scalars pass through unchanged, and ``__post_init__`` validates them.
The rules are the same for every type:

* strict keys: a key that is not a field raises the type's error;
* field defaults are the only defaults: a missing key takes the field
  default, and a missing required key raises the type's error;
* ``null`` gives ``None`` for an ``X | None`` field, and the field
  default for any other field that has one;
* errors the codec raises name the dotted document path of the
  offending mapping, e.g. ``fleet.devices[0]: unknown key(s) ...``.

Encoding is :func:`to_jsonable`: dataclasses become dicts in field
order and tuples become lists, so the bytes ``to_json`` emits depend
only on the field declarations.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Any

__all__ = ["JsonSpec", "decode", "loads", "to_jsonable"]


def to_jsonable(value: Any) -> Any:
    """Recursively convert spec values into JSON-serializable shapes
    (dataclasses become dicts, tuples become lists, dict values are
    converted in place — override mappings may carry spec objects)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    return value


class JsonSpec:
    """Base of the spec dataclasses: strict ``from_dict``/``from_json``
    and ``to_dict``/``to_json``.

    ``class X(JsonSpec, error=E)`` names the error class the codec
    raises for ``X``'s documents (``X.spec_error``).  A subclass
    overrides ``from_dict`` only to add behaviour around
    :func:`decode` (a shorthand, or re-raising a nested error in its
    own hierarchy).
    """

    __slots__ = ()

    def __init_subclass__(cls, error: type[Exception] | None = None,
                          **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # ``dataclass(slots=True)`` rebuilds the class without the
        # keyword; the rebuilt class keeps the attribute set here.
        if error is not None:
            cls.spec_error = error

    @classmethod
    def from_dict(cls, data: dict, path: str = ""):
        """Decode a JSON-shaped dict; ``path`` locates ``data`` inside
        an enclosing document for error messages."""
        return decode(cls, data, path)

    def to_dict(self) -> dict:
        """JSON-shaped dict (tuples become lists, specs become dicts)."""
        return to_jsonable(self)

    @classmethod
    def from_json(cls, text: str):
        return loads(cls, text)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


#: Per class: ``(name, type hint, has default)`` for every field.
_FIELDS: dict[type, tuple[tuple[str, Any, bool], ...]] = {}


def _fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    entries = _FIELDS.get(cls)
    if entries is None:
        hints = typing.get_type_hints(cls)
        entries = _FIELDS[cls] = tuple(
            (f.name, hints[f.name],
             f.default is not dataclasses.MISSING
             or f.default_factory is not dataclasses.MISSING)
            for f in dataclasses.fields(cls))
    return entries


def _optional_of(hint: Any) -> Any:
    """``X`` for an ``X | None`` hint, else ``None``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType and type(None) in args:
        return next(arg for arg in args if arg is not type(None))
    return None


def decode(cls: type, data: Any, path: str = "") -> Any:
    """Build the spec dataclass ``cls`` from JSON-shaped ``data``.

    ``path`` is the dotted location of ``data`` in its document; it
    prefixes the messages of the errors raised here.
    """
    error = cls.spec_error
    where = f"{path}: " if path else ""
    if not isinstance(data, dict):
        raise error(f"{where}{cls.__name__} expects a mapping, "
                    f"got {type(data).__name__}")
    entries = _fields(cls)
    allowed = sorted(name for name, _, _ in entries)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise error(f"{where}unknown key(s) {unknown} for "
                    f"{cls.__name__}; allowed: {allowed}")
    kwargs = {}
    for name, hint, has_default in entries:
        inner = _optional_of(hint)
        value = data.get(name)
        if name not in data or (value is None and inner is None
                                and has_default):
            if not has_default:
                raise error(f"{where}missing required key {name!r} "
                            f"for {cls.__name__}")
            continue
        if value is None and inner is not None:
            kwargs[name] = None
        else:
            kwargs[name] = _value(inner or hint, value,
                                  f"{path}.{name}" if path else name,
                                  error)
    return cls(**kwargs)


def _value(hint: Any, value: Any, path: str,
           error: type[Exception]) -> Any:
    """Decode one field value.  A value that is already an instance of
    its spec type passes through, so an override may decode a section
    itself before handing the document on."""
    if isinstance(hint, type) and issubclass(hint, JsonSpec):
        if isinstance(value, hint):
            return value
        return hint.from_dict(value, path)
    origin = typing.get_origin(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{path}: expected a list, "
                        f"got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(_value(item, entry, f"{path}[{index}]", error)
                     for index, entry in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return dict(value)
    return value


def loads(cls: type, text: str,
          error: type[Exception] | None = None) -> Any:
    """Decode ``cls`` from JSON ``text``; text that is not JSON raises
    ``error`` (default: the type's own error class)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise (error or cls.spec_error)(
            f"{cls.__name__} is not valid JSON: {exc}") from exc
    return cls.from_dict(data)

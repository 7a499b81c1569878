"""Exception hierarchy shared across the pipeline.

The CLI maps these onto stable exit codes: usage errors exit 1,
InputError exits 2, NumericalError exits 3. The JSON parser and type
rule live here too, so that every reader of JSON (config, KG, LLM or
HTTP reply, trace, embeddings file, lecture artifact) refuses text that
is not JSON, a lone surrogate and a mistyped value alike, and so does
``read_utf8``, through which every text file is read, a file that is
not UTF-8.
"""

import json
import re
import sys
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, get_args


class RdkgError(Exception):
    """Base class for all package errors."""


class InputError(RdkgError, ValueError):
    """Invalid input data or configuration (bad file, bad weights, bad shapes)."""


class NumericalError(RdkgError, RuntimeError):
    """Numerical failure inside a solver (NaN, divergence)."""


class ProviderError(RdkgError, RuntimeError):
    """An external provider (embedding endpoint, LLM) is unavailable."""


def read_utf8(path: str | Path, name: str) -> str:
    """The text of the UTF-8 file at ``path``; raises InputError naming
    ``name`` (which names the file) when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{name} is not UTF-8: {exc}") from exc


# --- the JSON parser and type rule ------------------------------------------

#: A surrogate code point: no UTF-8 text holds one, so no output can be
#: written that holds one.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def parse_json(text: str, name: str) -> Any:
    """The JSON document of ``text``; raises InputError "malformed <name>:
    ..." for text that is not JSON and for a document in which a key or a
    string holds a lone surrogate (an escape such as ``"\\ud800"``)."""
    try:
        doc = json.loads(text)
        # a surrogate comes from a \u escape, or from a text not read from UTF-8
        lone = ("\\u" in text or not text.isascii()) and _SURROGATE.search(
            json.dumps(doc, ensure_ascii=False))
    except (ValueError, RecursionError) as exc:  # also an integer of over 4300 digits
        raise InputError(f"malformed {name}: {exc}") from exc
    if lone:
        raise InputError(f"malformed {name}: a string holds the lone surrogate {lone[0]!r}")
    return doc


_KINDS = {str: "a string", bool: "a boolean", int: "an integer", float: "a finite number",
          dict: "an object", list: "a list", NoneType: "null"}
_MISSING = object()


def check_json(name: str, value: Any, kind: Any) -> Any:
    """Return ``value`` if it is a JSON value of ``kind``, else raise
    InputError "<name> must be <kind>, got <value as JSON>".

    ``kind`` is ``str`` (holding no lone surrogate), ``bool``, ``int``
    (never a boolean), ``float`` (an integer counts, a boolean does not,
    and the value must be finite), ``dict``, ``list``, ``list[X]`` or a
    union of them such as ``str | None``.
    """
    if not _is_json(value, kind):
        try:
            shown = json.dumps(value, default=repr)
        except RecursionError:  # orjson reads a document nested deeper than this
            shown = "a value nested too deep to show"
        raise InputError(f"{name} must be {_describe(kind)}, got "
                         f"{shown if len(shown) <= 80 else shown[:77] + '...'}")
    return value


def pop_field(raw: dict, key: str, kind: Any, default: Any = _MISSING) -> Any:
    """Pop ``raw[key]`` and check it with ``check_json``. A missing key
    gives ``default`` (refused without one); a null, where ``kind`` admits
    it, gives ``default`` too."""
    value = raw.pop(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise InputError(f"{key} is missing")
        return default
    check_json(key, value, kind)
    return default if value is None and default is not _MISSING else value


def _is_json(value: Any, kind: Any) -> bool:
    if kind is int or kind is float:
        # NaN compares false; an int beyond the largest float is refused too
        return (isinstance(value, (int, float) if kind is float else int)
                and not isinstance(value, bool)
                and (kind is int or abs(value) <= sys.float_info.max))
    if kind is str:  # a flag value holds one for each byte that is not UTF-8
        return isinstance(value, str) and (value.isascii() or not _SURROGATE.search(value))
    if type(kind) is type:
        return isinstance(value, kind)
    if isinstance(kind, UnionType):
        return any(_is_json(value, k) for k in get_args(kind))
    (item,) = get_args(kind)  # list[X]
    return isinstance(value, list) and all(_is_json(v, item) for v in value)


def _describe(kind: Any) -> str:
    if type(kind) is type:
        return _KINDS[kind]
    if isinstance(kind, UnionType):
        return " or ".join(_describe(k) for k in get_args(kind))
    (item,) = get_args(kind)  # list[X]
    return "a list of " + _describe(item).split(" ", 1)[1] + "s"

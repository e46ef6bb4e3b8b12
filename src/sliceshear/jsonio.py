"""JSON serialization for monomials and differentials.

The schema uses stable field order so exported bytes are deterministic:
monomials are ``{group, level, coeff, norms, a, u}`` with ``norms`` a list of
``[i, j, e]`` triples and ``a``/``u`` maps keyed by basis names (``s``/``2s``
and ``l<i>``); differentials are ``{group, page, source, target, provenance}``.
Groups are recorded by their exponent, so ``3`` means C8.  Every integer
field must be a plain int of at most 3,000 digits, the engine's one admission
rule.  The reader looks each field up once and tests it once, and a failed
test words its error from the value that lookup returned: a missing field or
a bad value.  It builds a field's path only to word an error, gives every
object it reads one shared ``CyclicGroup`` per exponent, and builds monomials
through their unchecked door and differentials through their one
constructor.  The writer reads one table of fixed text per level and indent.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Iterable, Union

from .differentials import PROVENANCES, Differential, validate
from .monomials import ClassMonomial
from .reps import _DIGITS_CAP, _MAX_DIGITS, _MAX_EXPONENT, _MAX_INDEX, CyclicGroup, _EngineError
from .reps import _describe, basis_names

__all__ = [
    "JsonSchemaError",
    "monomial_to_obj",
    "obj_to_monomial",
    "differential_to_obj",
    "obj_to_differential",
    "export_json",
    "import_json",
]

Item = Union[ClassMonomial, Differential]


class JsonSchemaError(_EngineError):
    """A schema violation, reported with the path to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path or '$'}: {message}")


def monomial_to_obj(m: ClassMonomial) -> dict:
    """The object ``export_json`` writes for ``m``, parsed."""
    return json.loads(_monomial_text(m, ""))


def differential_to_obj(d: Differential) -> dict:
    """The object ``export_json`` writes for ``d``, parsed."""
    return json.loads(_differential_text(d, ""))


_MISSING = object()  # what the reader's lookup gives for a field the object lacks


def _lookup(obj, at):
    """The reader's one lookup per field of ``obj``, ``get(key, _MISSING)``:
    ``dict.get`` for a plain dict, and ``in`` then ``[]`` for a dict subclass,
    which may override them (and whose ``get`` may not agree).  Anything else
    is refused at the path ``at()``."""
    if type(obj) is dict:
        return obj.get
    if isinstance(obj, dict):
        return lambda key, default: obj[key] if key in obj else default
    _refuse(obj, at(), f"expected an object, got {_describe(obj)}")


def _refuse(value, path: str, message: str):
    """Raise the error of a field whose one test failed, worded from the value
    its one lookup returned: a missing field, else ``message``."""
    raise JsonSchemaError(path, "required field is missing" if value is _MISSING else message)


def _int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if type(value) is not int:  # bools, floats and int subclasses, as reps._admit
        _refuse(value, path, f"expected an integer, got {_describe(value)}")
    if abs(value) >= _DIGITS_CAP:
        raise JsonSchemaError(path, f"has more than {_MAX_DIGITS} digits")
    if minimum is not None and value < minimum:
        raise JsonSchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise JsonSchemaError(path, f"must be <= {maximum}, got {value}")
    return value


# a lambda_i key at some level, which tells an unknown key from one out of
# range at this level: ASCII digits only, no leading zero, so "l0" is unknown.
# Compiled on first use, as only an error is worded with it
_LAMBDA_KEY = r"l[1-9]\d*"

# the reader's groups, one per exponent from 0 to 2048, each built on first use
# (a group is never falsy, so ``get(e) or setdefault(e, ...)`` builds at most one)
_GROUPS: dict[int, CyclicGroup] = {}


@functools.lru_cache(maxsize=65)
def _basis(level: int) -> tuple[dict[str, int], dict[str, int], tuple[int, ...]]:
    """The reader's table at ``level``: the a and u maps' name -> slot, and
    the zero vector that an empty map reads as."""
    a, u = (
        {k: slot for slot, k in enumerate(basis_names(level, zero_key))}
        for zero_key in ("s", "2s")
    )
    return a, u, (0,) * level


def _exp_vector(value, slots: dict[str, int], zero: tuple[int, ...], at, name: str, level: int):
    """The vector the basis map ``value`` spells; ``at()`` and ``name`` word
    its path only for an error."""
    if not isinstance(value, dict):
        _refuse(value, f"{at()}.{name}", f"expected an object, got {_describe(value)}")
    if not value:
        return zero
    vec = list(zero)
    for key, e in value.items():
        slot = slots.get(key)
        if slot is None:
            zero_key = "s" if name == "a" else "2s"
            if not isinstance(key, str) or (
                key != zero_key and not re.fullmatch(_LAMBDA_KEY, key, re.ASCII)
            ):
                raise JsonSchemaError(f"{at()}.{name}.{key}", "unknown basis key")
            raise JsonSchemaError(
                f"{at()}.{name}.{key}", f"basis slot out of range at level {level}"
            )
        if type(e) is not int or not 0 <= e < _DIGITS_CAP:
            _int(e, f"{at()}.{name}.{key}", minimum=0)
        vec[slot] = e
    return tuple(vec)


def obj_to_monomial(obj, path: str = "") -> ClassMonomial:
    return _monomial(obj, lambda: path)


def _monomial(obj, at) -> ClassMonomial:
    """``obj_to_monomial`` at the path ``at()``, which is built only to word an
    error.  Each field is looked up once and tested once, inline; a failed
    test words its error from the value that lookup returned."""
    get = _lookup(obj, at)
    group = get("group", _MISSING)
    if type(group) is not int or not 0 <= group <= _MAX_EXPONENT:
        _int(group, f"{at()}.group", 0, _MAX_EXPONENT)
    level = get("level", _MISSING)
    if type(level) is not int or not 0 <= level < _DIGITS_CAP:
        _int(level, f"{at()}.level", 0)
    coeff = get("coeff", _MISSING)
    if type(coeff) is not int or abs(coeff) >= _DIGITS_CAP:
        _int(coeff, f"{at()}.coeff")
    raw_norms = get("norms", _MISSING)
    if not isinstance(raw_norms, list):
        _refuse(raw_norms, f"{at()}.norms", "expected a list of [i, j, e] triples")
    norms = []
    for idx, t in enumerate(raw_norms):
        if type(t) is list and len(t) == 3:
            i, j, e = t
            if (type(i) is type(j) is type(e) is int and 1 <= i <= _MAX_INDEX
                    and 1 <= j < _DIGITS_CAP and e >= 0):
                norms.append((i, j, e))
                continue
        tpath = f"{at()}.norms[{idx}]"  # a bad triple, or a good one in a list subclass
        if not isinstance(t, list) or len(t) != 3:
            raise JsonSchemaError(tpath, "expected an [i, j, e] triple")
        i = _int(t[0], f"{tpath}[0]", 1, _MAX_INDEX)
        j = _int(t[1], f"{tpath}[1]", minimum=1)
        norms.append((i, j, _int(t[2], f"{tpath}[2]", minimum=0)))
    if level > group:
        # rejected here, before the exponent maps build a basis table of that length
        raise JsonSchemaError(
            at(), f"level {level} out of range for ambient group {CyclicGroup(group)}"
        )
    # a level past any chart's gets a fresh table, so the memo holds only small ones
    a_slots, u_slots, zero = (_basis if level <= 64 else _basis.__wrapped__)(level)
    a = _exp_vector(get("a", _MISSING), a_slots, zero, at, "a", level)
    u = _exp_vector(get("u", _MISSING), u_slots, zero, at, "u", level)
    for i, j, e in norms:
        if j > level:
            raise JsonSchemaError(at(), f"norm factor ({i}, {j}) out of range at level {level}")
    g = _GROUPS.get(group) or _GROUPS.setdefault(group, CyclicGroup(group))
    m = ClassMonomial._trusted(g, level, coeff, norms, a, u)
    for _, _, e in m.norms:  # merged, so triples that add up are bounded, and each one too
        if e >= _DIGITS_CAP:
            raise JsonSchemaError(f"{at()}.norms", f"exponent has more than {_MAX_DIGITS} digits")
    return m


def obj_to_differential(obj, path: str = "") -> Differential:
    return _differential(obj, lambda: path)


def _differential(obj, at) -> Differential:
    """``obj_to_differential`` at the path ``at()``, built only to word an error."""
    get = _lookup(obj, at)
    # page is the discriminator, so it is checked first
    page = get("page", _MISSING)
    if type(page) is not int or not 2 <= page < _DIGITS_CAP:
        _int(page, f"{at()}.page", 2)
    group = get("group", _MISSING)
    if type(group) is not int or not 0 <= group <= _MAX_EXPONENT:
        _int(group, f"{at()}.group", 0, _MAX_EXPONENT)
    source = _monomial(get("source", _MISSING), lambda: f"{at()}.source")
    target = _monomial(get("target", _MISSING), lambda: f"{at()}.target")
    provenance = get("provenance", _MISSING)
    if provenance not in PROVENANCES:
        _refuse(provenance, f"{at()}.provenance", f"must be one of {PROVENANCES}")
    g = _GROUPS.get(group) or _GROUPS.setdefault(group, CyclicGroup(group))
    d = Differential(g, page, source, target, provenance)
    problems = validate(d)
    if problems:
        raise JsonSchemaError(at(), problems[0])
    return d


# The writer below is the one definition of the layout: it lays out the bytes
# json.dumps(objs, indent=2) would give for the objects it writes, without the
# pure-Python indent encoder.  Its template needs no escaping: keys come from
# basis_names and provenance from PROVENANCES, and every integer field is a
# plain int, for which str is the text json writes.


@functools.lru_cache(maxsize=195)
def _layout(level: int, pad: str) -> tuple:
    """The writer's table for a monomial at ``level`` with its braces at
    indent ``pad``: the indents one, two and three steps in, the
    ``'"name": '`` prefix of each a and u slot, the zero vector, and the
    fixed text before the group and between the group and the coefficient."""
    p1 = pad + "  "
    p2 = p1 + "  "
    a_keys, u_keys = (
        tuple([f'{p2}"{k}": ' for k in basis_names(level, zero_key)]) for zero_key in ("s", "2s")
    )
    head = f'{{\n{p1}"group": '
    middle = f',\n{p1}"level": {level},\n{p1}"coeff": '
    return p1, p2, p2 + "  ", a_keys, u_keys, (0,) * level, head, middle


def _monomial_text(m: ClassMonomial, pad: str) -> str:
    """The JSON text of ``m``, laid out with its braces at indent ``pad``."""
    level = m.level
    # as in _basis, a level past any chart's gets a fresh table
    p1, p2, p3, a_keys, u_keys, zero, head, middle = (
        _layout if level <= 64 else _layout.__wrapped__
    )(level, pad)
    # an empty list or map is written without a join
    norms = "[]" if not m.norms else "[\n" + ",\n".join(
        [f"{p2}[\n{p3}{i},\n{p3}{j},\n{p3}{e}\n{p2}]" for i, j, e in m.norms]) + f"\n{p1}]"
    a = "{}" if m.a_exp == zero else "{\n" + ",\n".join(
        [f"{k}{e}" for k, e in zip(a_keys, m.a_exp) if e]) + f"\n{p1}}}"
    u = "{}" if m.u_exp == zero else "{\n" + ",\n".join(
        [f"{k}{e}" for k, e in zip(u_keys, m.u_exp) if e]) + f"\n{p1}}}"
    return (
        f'{head}{m.group.exponent}{middle}{m.coeff},\n{p1}"norms": {norms},\n'
        f'{p1}"a": {a},\n{p1}"u": {u}\n{pad}}}'
    )


def _differential_text(d: Differential, pad: str) -> str:
    """The JSON text of ``d``, laid out with its braces at indent ``pad``."""
    p1 = pad + "  "
    return (
        f'{{\n{p1}"group": {d.group.exponent},\n{p1}"page": {d.page},\n'
        f'{p1}"source": {_monomial_text(d.source, p1)},\n'
        f'{p1}"target": {_monomial_text(d.target, p1)},\n'
        f'{p1}"provenance": "{d.provenance}"\n'
        f"{pad}}}"
    )


def export_json(items: Iterable[Item]) -> bytes:
    """Serialize a sequence of monomials and differentials; round-trip exact.

    The bytes are ``json.dumps([monomial_to_obj / differential_to_obj of each
    item], indent=2) + "\\n"``."""
    texts = []
    for item in items:
        if isinstance(item, Differential):
            texts.append(_differential_text(item, "  "))
        elif isinstance(item, ClassMonomial):
            texts.append(_monomial_text(item, "  "))
        else:
            raise TypeError(f"cannot export {type(item).__name__} to JSON")
    if not texts:
        return b"[]\n"
    return ("[\n  " + ",\n  ".join(texts) + "\n]\n").encode("utf-8")


def import_json(data: bytes | str) -> list[Item]:
    """Inverse of :func:`export_json`; objects with a ``page`` field are
    differentials, everything else must be a monomial."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError and the int digit limit are
        # all ValueErrors; RecursionError comes from deep nesting
        raise JsonSchemaError("$", f"not valid JSON: {e}") from e
    if not isinstance(raw, list):
        raise JsonSchemaError("$", f"expected a list, got {type(raw).__name__}")
    out: list[Item] = []
    for idx, obj in enumerate(raw):
        at = functools.partial("items[{}]".format, idx)  # the path, built only for an error
        if isinstance(obj, dict) and "page" in obj:
            out.append(_differential(obj, at))
        else:
            out.append(_monomial(obj, at))
    return out

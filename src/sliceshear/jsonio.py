"""JSON serialization for monomials and differentials.

The schema uses stable field order so exported bytes are deterministic:
monomials are ``{group, level, coeff, norms, a, u}`` with ``norms`` a list of
``[i, j, e]`` triples and ``a``/``u`` maps keyed by basis names (``s``/``2s``
and ``l<i>``); differentials are ``{group, page, source, target, provenance}``.
Groups are recorded by their exponent, so ``3`` means C8.  Every integer
field must be a plain int, the engine's one admission rule; the reader checks
each field once and builds the monomial without a second check.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Iterable, Union

from .differentials import PROVENANCES, Differential, validate
from .monomials import ClassMonomial
from .reps import _DIGITS_CAP, _MAX_DIGITS, _MAX_EXPONENT, _MAX_INDEX, CyclicGroup, _EngineError
from .reps import basis_names

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


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise JsonSchemaError(f"{path}.{key}", "required field is missing")
    return obj[key]


def _int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if type(value) is not int:  # bools, floats and int subclasses, as reps._admit
        raise JsonSchemaError(path, f"expected an integer, got {value!r}")
    if abs(value) >= _DIGITS_CAP:
        raise JsonSchemaError(path, f"has more than {_MAX_DIGITS} digits")
    if minimum is not None and value < minimum:
        raise JsonSchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise JsonSchemaError(path, f"must be <= {maximum}, got {value}")
    return value


# a lambda_i key at some level, which tells an unknown key from one out of
# range at this level: ASCII digits only, no leading zero, so "l0" is unknown
_LAMBDA_KEY_RE = re.compile(r"l[1-9]\d*", re.ASCII)


@functools.lru_cache(maxsize=64)
def _slots(level: int, zero_key: str) -> dict[str, int]:
    """basis_names(level, zero_key) as a name -> slot map."""
    return {k: slot for slot, k in enumerate(basis_names(level, zero_key))}


def _exp_vector(value, path: str, name: str, level: int, zero_key: str) -> tuple[int, ...]:
    """The vector the basis map ``path.name`` spells."""
    if not isinstance(value, dict):
        raise JsonSchemaError(f"{path}.{name}", f"expected an object, got {value!r}")
    vec = [0] * level
    # a level past any chart's gets a fresh map, so the memo holds only small ones
    slots = (_slots if level <= 64 else _slots.__wrapped__)(level, zero_key)
    for key, e in value.items():
        slot = slots.get(key)
        if slot is None:
            if not isinstance(key, str) or (
                key != zero_key and not _LAMBDA_KEY_RE.fullmatch(key)
            ):
                raise JsonSchemaError(f"{path}.{name}.{key}", "unknown basis key")
            raise JsonSchemaError(
                f"{path}.{name}.{key}", f"basis slot out of range at level {level}"
            )
        if type(e) is not int or not 0 <= e < _DIGITS_CAP:
            _int(e, f"{path}.{name}.{key}", minimum=0)
        vec[slot] = e
    return tuple(vec)


def obj_to_monomial(obj, path: str = "") -> ClassMonomial:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    # each field is tested once, inline, and a path is built only when _int
    # words the error that a failed test leads to
    group = _need(obj, "group", path)
    if type(group) is not int or not 0 <= group <= _MAX_EXPONENT:
        _int(group, f"{path}.group", 0, _MAX_EXPONENT)
    level = _need(obj, "level", path)
    if type(level) is not int or level < 0:
        _int(level, f"{path}.level", minimum=0)
    coeff = _need(obj, "coeff", path)
    if type(coeff) is not int or abs(coeff) >= _DIGITS_CAP:
        _int(coeff, f"{path}.coeff")
    raw_norms = _need(obj, "norms", path)
    if not isinstance(raw_norms, list):
        raise JsonSchemaError(f"{path}.norms", "expected a list of [i, j, e] triples")
    norms = []
    for idx, t in enumerate(raw_norms):
        if type(t) is list and len(t) == 3:
            i, j, e = t
            if type(i) is type(j) is type(e) is int and 1 <= i <= _MAX_INDEX and j >= 1 and e >= 0:
                norms.append((i, j, e))
                continue
        tpath = f"{path}.norms[{idx}]"  # a bad triple, or a good one in a list subclass
        if not isinstance(t, list) or len(t) != 3:
            raise JsonSchemaError(tpath, "expected an [i, j, e] triple")
        i = _int(t[0], f"{tpath}[0]", 1, _MAX_INDEX)
        j = _int(t[1], f"{tpath}[1]", minimum=1)
        norms.append((i, j, _int(t[2], f"{tpath}[2]", minimum=0)))
    if level > group:
        # rejected here, before the exponent maps build a basis table of that length
        raise JsonSchemaError(
            path, f"level {level} out of range for ambient group {CyclicGroup(group)}"
        )
    a = _exp_vector(_need(obj, "a", path), path, "a", level, "s")
    u = _exp_vector(_need(obj, "u", path), path, "u", level, "2s")
    for i, j, e in norms:
        if j > level:
            raise JsonSchemaError(path, f"norm factor ({i}, {j}) out of range at level {level}")
    m = ClassMonomial._trusted(CyclicGroup(group), level, coeff, norms, a, u)
    for _, _, e in m.norms:  # merged, so triples that add up are bounded, and each one too
        if e >= _DIGITS_CAP:
            raise JsonSchemaError(f"{path}.norms", f"exponent has more than {_MAX_DIGITS} digits")
    return m


def obj_to_differential(obj, path: str = "") -> Differential:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    # page is the discriminator, so it is checked first
    page = _int(_need(obj, "page", path), f"{path}.page", minimum=2)
    group = _int(_need(obj, "group", path), f"{path}.group", 0, _MAX_EXPONENT)
    source = obj_to_monomial(_need(obj, "source", path), f"{path}.source")
    target = obj_to_monomial(_need(obj, "target", path), f"{path}.target")
    provenance = _need(obj, "provenance", path)
    if provenance not in PROVENANCES:
        raise JsonSchemaError(f"{path}.provenance", f"must be one of {PROVENANCES}")
    d = Differential(CyclicGroup(group), page, source, target, provenance)
    problems = validate(d)
    if problems:
        raise JsonSchemaError(path, problems[0])
    return d


# The writer below is the one definition of the layout: it lays out the bytes
# json.dumps(objs, indent=2) would give for the objects it writes, without the
# pure-Python indent encoder.  Its template needs no escaping: keys come from
# basis_names and provenance from PROVENANCES, and every integer field is a
# plain int, for which str is the text json writes.


@functools.lru_cache(maxsize=128)
def _keys(level: int, zero_key: str, pad: str) -> tuple[str, ...]:
    """The ``'{pad}  "name": '`` prefix of each basis slot at ``level``."""
    return tuple([f'{pad}  "{k}": ' for k in basis_names(level, zero_key)])


def _exponents_text(exps: tuple[int, ...], zero_key: str, pad: str) -> str:
    level = len(exps)
    # as in _slots, a level past any chart's gets a fresh table
    keys = (_keys if level <= 64 else _keys.__wrapped__)(level, zero_key, pad)
    body = ",\n".join([f"{k}{e}" for k, e in zip(keys, exps) if e])
    return f"{{\n{body}\n{pad}}}" if body else "{}"


def _monomial_text(m: ClassMonomial, pad: str) -> str:
    """The JSON text of ``m``, laid out with its braces at indent ``pad``."""
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    norms = ",\n".join(
        [f"{p2}[\n{p3}{i},\n{p3}{j},\n{p3}{e}\n{p2}]" for i, j, e in m.norms]
    )
    norms = f"[\n{norms}\n{p1}]" if norms else "[]"
    return (
        f'{{\n{p1}"group": {m.group.exponent},\n{p1}"level": {m.level},\n'
        f'{p1}"coeff": {m.coeff},\n{p1}"norms": {norms},\n'
        f'{p1}"a": {_exponents_text(m.a_exp, "s", p1)},\n'
        f'{p1}"u": {_exponents_text(m.u_exp, "2s", p1)}\n'
        f"{pad}}}"
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
        path = f"items[{idx}]"
        if isinstance(obj, dict) and "page" in obj:
            out.append(obj_to_differential(obj, path))
        else:
            out.append(obj_to_monomial(obj, path))
    return out

"""JSON serialization for monomials and differentials.

The schema uses stable field order so exported bytes are deterministic:
monomials are ``{group, level, coeff, norms, a, u}`` with ``norms`` a list of
``[i, j, e]`` triples and ``a``/``u`` maps keyed by basis names (``s``/``2s``
and ``l<i>``); differentials are ``{group, page, source, target, provenance}``.
Groups are recorded by their exponent, so ``3`` means C8.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Union

from .differentials import PROVENANCES, Differential
from .monomials import ClassMonomial, MonomialError
from .reps import CyclicGroup, RepError, basis_names

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


class JsonSchemaError(ValueError):
    """A schema violation, reported with the path to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path or '$'}: {message}")


def monomial_to_obj(m: ClassMonomial) -> dict:
    a, u = m.a_exp, m.u_exp
    # most classes carry only a's or only u's; an all-zero side skips the table
    return {
        "group": m.group.exponent,
        "level": m.level,
        "coeff": m.coeff,
        "norms": [[i, j, e] for i, j, e in m.norms],
        "a": {k: e for k, e in zip(basis_names(m.level, "s"), a) if e} if any(a) else {},
        "u": {k: e for k, e in zip(basis_names(m.level, "2s"), u) if e} if any(u) else {},
    }


def differential_to_obj(d: Differential) -> dict:
    return {
        "group": d.group.exponent,
        "page": d.page,
        "source": monomial_to_obj(d.source),
        "target": monomial_to_obj(d.target),
        "provenance": d.provenance,
    }


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise JsonSchemaError(f"{path}.{key}", "required field is missing")
    return obj[key]


def _int(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise JsonSchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise JsonSchemaError(path, f"must be >= {minimum}, got {value}")
    return value


# a lambda_i key at some level, which tells an unknown key from one out of
# range at this level: ASCII digits only, no leading zero, so "l0" is unknown
_LAMBDA_KEY_RE = re.compile(r"l[1-9]\d*", re.ASCII)


def _exp_vector(value, path: str, level: int, zero_key: str) -> tuple[int, ...]:
    if not isinstance(value, dict):
        raise JsonSchemaError(path, f"expected an object, got {value!r}")
    vec = [0] * level
    names = basis_names(level, zero_key)
    for key, e in value.items():
        if key not in names:
            if not isinstance(key, str) or (
                key != zero_key and not _LAMBDA_KEY_RE.fullmatch(key)
            ):
                raise JsonSchemaError(f"{path}.{key}", "unknown basis key")
            raise JsonSchemaError(f"{path}.{key}", f"basis slot out of range at level {level}")
        vec[names.index(key)] = _int(e, f"{path}.{key}", minimum=0)
    return tuple(vec)


def obj_to_monomial(obj, path: str = "") -> ClassMonomial:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    group = _int(_need(obj, "group", path), f"{path}.group", minimum=0)
    level = _int(_need(obj, "level", path), f"{path}.level", minimum=0)
    coeff = _int(_need(obj, "coeff", path), f"{path}.coeff")
    raw_norms = _need(obj, "norms", path)
    if not isinstance(raw_norms, list):
        raise JsonSchemaError(f"{path}.norms", "expected a list of [i, j, e] triples")
    norms = []
    for idx, triple in enumerate(raw_norms):
        tpath = f"{path}.norms[{idx}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise JsonSchemaError(tpath, "expected an [i, j, e] triple")
        norms.append(
            (
                _int(triple[0], f"{tpath}[0]", minimum=1),
                _int(triple[1], f"{tpath}[1]", minimum=1),
                _int(triple[2], f"{tpath}[2]", minimum=0),
            )
        )
    if level > group:
        # rejected here, before the exponent maps build a basis table of that length
        raise JsonSchemaError(
            path, f"level {level} out of range for ambient group {CyclicGroup(group)}"
        )
    a = _exp_vector(_need(obj, "a", path), f"{path}.a", level, "s")
    u = _exp_vector(_need(obj, "u", path), f"{path}.u", level, "2s")
    try:
        return ClassMonomial(CyclicGroup(group), level, coeff, tuple(norms), a, u)
    except (MonomialError, RepError) as e:
        raise JsonSchemaError(path, str(e)) from e


def obj_to_differential(obj, path: str = "") -> Differential:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    # page is the discriminator, so it is checked first
    page = _int(_need(obj, "page", path), f"{path}.page", minimum=2)
    group = _int(_need(obj, "group", path), f"{path}.group", minimum=0)
    source = obj_to_monomial(_need(obj, "source", path), f"{path}.source")
    target = obj_to_monomial(_need(obj, "target", path), f"{path}.target")
    provenance = _need(obj, "provenance", path)
    if provenance not in PROVENANCES:
        raise JsonSchemaError(f"{path}.provenance", f"must be one of {PROVENANCES}")
    return Differential(CyclicGroup(group), page, source, target, provenance)


def export_json(items: Iterable[Item]) -> bytes:
    """Serialize a sequence of monomials and differentials; round-trip exact."""
    objs = []
    for item in items:
        if isinstance(item, Differential):
            objs.append(differential_to_obj(item))
        elif isinstance(item, ClassMonomial):
            objs.append(monomial_to_obj(item))
        else:
            raise TypeError(f"cannot export {type(item).__name__} to JSON")
    return (json.dumps(objs, indent=2) + "\n").encode("utf-8")


def import_json(data: bytes | str) -> list[Item]:
    """Inverse of :func:`export_json`; objects with a ``page`` field are
    differentials, everything else must be a monomial."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
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

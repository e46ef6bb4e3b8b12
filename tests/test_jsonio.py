import json
import random
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    Differential,
    DifferentialError,
    JsonSchemaError,
    LeibnizZeroError,
    MonomialError,
    RegionWarning,
    RepError,
    basis_names,
    build_D,
    export_json,
    hhr_family,
    hu_kriz_seed,
    import_json,
    leibniz,
    transport,
    validate,
)
from sliceshear import jsonio
from sliceshear.differentials import PROVENANCES
from sliceshear.jsonio import differential_to_obj, monomial_to_obj, obj_to_differential
from sliceshear.jsonio import obj_to_monomial
from helpers import eager_import_json, eager_obj_to_differential, eager_obj_to_monomial
from helpers import random_monomial, reference_obj_to_monomial


class TestRoundTrip:
    def test_family_differential(self):
        items = [hhr_family(2, 1)]
        assert import_json(export_json(items)) == items

    def test_mixed_items(self):
        items = [
            hu_kriz_seed(3),
            hu_kriz_seed(3).source,
            build_D(3, 2),
            transport(hu_kriz_seed(1), 2),
        ]
        out = import_json(export_json(items))
        assert out == items
        # provenance is not part of equality; confirm it survives explicitly
        assert out[3].provenance == "transported"

    def test_empty_list(self):
        assert export_json([]) == b"[]\n"
        assert import_json(b"[]\n") == []

    def test_random_monomials(self):
        rng = random.Random(61)
        items = [
            random_monomial(rng, CyclicGroup(rng.randint(0, 4)))
            for _ in range(100)
        ]
        assert import_json(export_json(items)) == items

    def test_bytes_deterministic(self):
        items = [hhr_family(1, 2), leibniz(hu_kriz_seed(1), hu_kriz_seed(1).source)]
        assert export_json(items) == export_json(items)


class TestSchema:
    def test_stable_field_order(self):
        obj = differential_to_obj(hhr_family(1, 1))
        assert list(obj) == ["group", "page", "source", "target", "provenance"]
        assert list(obj["source"]) == ["group", "level", "coeff", "norms", "a", "u"]

    def test_page_minimum_rejected(self):
        with pytest.raises(JsonSchemaError, match="page"):
            import_json(json.dumps([{"page": 1}]))

    def test_missing_field_path(self):
        obj = monomial_to_obj(build_D(2, 1))
        del obj["coeff"]
        with pytest.raises(JsonSchemaError, match=r"items\[0\]\.coeff"):
            import_json(json.dumps([obj]))

    def test_bad_norm_triple_path(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["norms"][0] = [1, 2]
        with pytest.raises(JsonSchemaError, match=r"norms\[0\]"):
            import_json(json.dumps([obj]))

    def test_unknown_basis_key(self):
        obj = monomial_to_obj(hu_kriz_seed(1).source)
        obj["u"]["q7"] = 1
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            import_json(json.dumps([obj]))

    def test_unicode_digit_basis_key(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {"l\u00b2": 1}
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            import_json(json.dumps([obj]))

    def test_l0_does_not_alias_sigma(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {"s": 1, "l0": 3}
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            import_json(json.dumps([obj]))

    def test_basis_slot_out_of_range(self):
        obj = monomial_to_obj(hu_kriz_seed(1).source)
        obj["a"] = {"l5": 1}
        with pytest.raises(JsonSchemaError, match="out of range"):
            import_json(json.dumps([obj]))

    def test_level_above_group_rejected_before_basis_table(self, monkeypatch):
        obj = monomial_to_obj(build_D(2, 1))
        obj["level"] = 300000
        built = []
        monkeypatch.setattr(jsonio, "basis_names", lambda *args: built.append(args))
        with pytest.raises(JsonSchemaError, match="level 300000 out of range for ambient group C4"):
            obj_to_monomial(obj)
        assert built == []

    def test_basis_key_past_int_digit_limit(self):
        # more digits than int() converts by default; still just out of range
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {"l" + "1" * 5000: 1}
        with pytest.raises(JsonSchemaError, match="out of range"):
            obj_to_monomial(obj)

    def test_group_past_int_digit_limit(self, default_digit_limit):
        # a message once named C_(2^20000), whose order has too many digits to
        # print; the group bound refuses it first
        obj = {"group": 20000, "level": 20001, "coeff": 1, "norms": [], "a": {}, "u": {}}
        with pytest.raises(JsonSchemaError) as e:
            import_json(json.dumps([obj]))
        assert str(e.value) == "items[0].group: must be <= 2048, got 20000"

    def test_non_string_basis_key(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {1: 2}
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            obj_to_monomial(obj)

    def test_top_level_must_be_list(self):
        with pytest.raises(JsonSchemaError):
            import_json(b'{"group": 1}')

    def test_items_must_be_objects(self):
        with pytest.raises(JsonSchemaError, match=r"^items\[0\]: expected an object, got 1$"):
            import_json("[1]")
        with pytest.raises(JsonSchemaError, match=r"^\$: expected an object, got \[\]$"):
            jsonio.obj_to_differential([])

    def test_not_json(self):
        with pytest.raises(JsonSchemaError):
            import_json(b"@@@")

    def test_bad_provenance(self):
        obj = differential_to_obj(hu_kriz_seed(1))
        obj["provenance"] = "dreamt"
        with pytest.raises(JsonSchemaError, match="provenance"):
            import_json(json.dumps([obj]))


class TestMalformedBytes:
    """Bytes that json cannot read are schema errors, whatever json raises."""

    def test_invalid_utf8(self):
        with pytest.raises(JsonSchemaError, match=r"^\$: not valid JSON: 'utf-8' codec"):
            import_json(b"\xff[]")

    def test_number_past_int_digit_limit(self, default_digit_limit):
        with pytest.raises(JsonSchemaError, match=r"^\$: not valid JSON: Exceeds the limit \(4300"):
            import_json(b"[" + b"7" * 5000 + b"]")

    def test_deep_nesting(self):
        with pytest.raises(JsonSchemaError, match=r"^\$: not valid JSON: maximum recursion depth"):
            import_json(b"[" * 100000 + b"]" * 100000)

    def test_decode_error_message(self):
        with pytest.raises(JsonSchemaError) as e:
            import_json(b"[1,")
        assert str(e.value) == "$: not valid JSON: Expecting value: line 1 column 4 (char 3)"


class TestInvalidDifferentials:
    """Imported differentials pass validate(), as DSL ones do."""

    def _rejected(self, obj, message):
        with pytest.raises(JsonSchemaError, match=r"^items\[0\]: " + message):
            import_json(json.dumps([obj]))

    def test_stem_mismatch(self):
        obj = differential_to_obj(hhr_family(1, 1))
        obj["target"]["norms"] = []
        self._rejected(obj, r"stem mismatch: 0 - 1 = -1 expected, target has -5$")

    def test_filtration_mismatch(self):
        obj = differential_to_obj(hhr_family(1, 1))
        obj["page"] = 7
        self._rejected(obj, "filtration mismatch")

    def test_group_disagrees_with_endpoints(self):
        obj = differential_to_obj(hhr_family(1, 1))
        obj["group"] = 3
        self._rejected(
            obj, r"endpoint group mismatch: source over C4, target over C4, differential over C8$"
        )

    def test_group_too_large_to_print_the_order_of(self):
        # naming C_(2^(10^30)) once raised OverflowError from 1 << 10**30; the
        # group bound refuses it before any group is named
        obj = differential_to_obj(hhr_family(1, 1))
        obj["group"] = 10**30
        with pytest.raises(JsonSchemaError) as e:
            import_json(json.dumps([obj]))
        assert str(e.value) == f"items[0].group: must be <= 2048, got {10**30}"

    def test_zero_endpoint(self):
        obj = differential_to_obj(hhr_family(1, 1))
        obj["source"]["coeff"] = 0
        self._rejected(obj, "differential endpoints must be nonzero classes")

    @pytest.mark.parametrize(
        "field",
        [
            ("page",), ("group",), ("source", "group"), ("source", "level"),
            ("source", "coeff"), ("target", "norms", 0, 0), ("target", "norms", 0, 1),
            ("target", "norms", 0, 2), ("target", "a", "s"), ("target", "a", "l1"),
            ("source", "u", "2s"),
        ],
        ids=lambda field: ".".join(map(str, field)),
    )
    def test_int_subclass_is_refused_at_its_field(self, field):
        # it once reached the constructors, which raised a bare DifferentialError
        # or RepError, or a JsonSchemaError worded by the monomial constructor
        obj = differential_to_obj(hhr_family(1, 1))
        obj["target"]["norms"] = [list(t) for t in obj["target"]["norms"]]
        *parents, last = field
        holder = obj
        for key in parents:
            holder = holder[key]
        holder[last] = _Int(holder[last])
        where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in field)
        want = f"items[0]{where}: expected an integer, got {holder[last]!r}"
        with pytest.raises(JsonSchemaError) as e:
            jsonio.obj_to_differential(obj, "items[0]")
        assert str(e.value) == want

    def test_degree_too_long_to_print(self, default_digit_limit):
        # an exponent past 3,000 digits is refused at its path; its degree,
        # 10^3700 (2^2048 - 1) with 4,317 digits, once reached validate's
        # message, which then could not be printed
        obj = differential_to_obj(hhr_family(0, 1))
        obj["target"]["norms"] = [[2048, 1, 10**3700]]
        with pytest.raises(JsonSchemaError) as e:
            import_json(json.dumps([obj]))
        assert str(e.value) == "items[0].target.norms: exponent has more than 3000 digits"
        obj["target"]["norms"] = [[2048, 1, 10**3000 - 1]]
        self._rejected(obj, r"stem mismatch: 0 - 1 = -1 expected, target has \d{3617}$")

    def test_norm_index_too_large_for_its_power(self):
        # 2^i cannot be built for i = 10^30; it once left the reader as an
        # OverflowError, and the generator index bound now refuses it at its path
        obj = differential_to_obj(hhr_family(0, 1))
        obj["source"]["norms"] = [[10**30, 1, 1]]
        with pytest.raises(JsonSchemaError) as e:
            import_json(json.dumps([obj]))
        assert str(e.value) == f"items[0].source.norms[0][0]: must be <= 2048, got {10**30}"


class TestExportedFieldsArePlainInts:
    """A bool or float in a field that export_json writes would export as
    true/1.5/NaN, which import_json rejects; the constructors refuse them."""

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, float("nan"), float("inf")])
    def test_rejected(self, bad):
        g = CyclicGroup(2)
        good = dict(group=g, level=2, coeff=1, norms=((1, 1, 1),), a_exp=(1, 0), u_exp=(0, 1))
        for change in (
            dict(level=bad),
            dict(coeff=bad),
            dict(norms=((bad, 1, 1),)),
            dict(norms=((1, bad, 1),)),
            dict(norms=((1, 1, bad),)),
            dict(a_exp=(bad, 0)),
            dict(u_exp=(0, bad)),
        ):
            with pytest.raises(MonomialError):
                ClassMonomial(**{**good, **change})
        with pytest.raises(RepError):
            CyclicGroup(bad)
        m = ClassMonomial(**good)
        with pytest.raises(DifferentialError):
            Differential(g, bad, m, m)

    def test_mixed_bool_and_float(self):
        with pytest.raises(MonomialError):
            ClassMonomial(CyclicGroup(2), 2, True, ((1.5, 1, 1),), (0, True))


@st.composite
def monomials(draw):
    """Monomials at levels 0-6, with zero, unit, large and negative
    coefficients and large norm indices and exponents."""
    group = CyclicGroup(draw(st.integers(0, 6)))
    level = draw(st.integers(0, group.exponent))
    if draw(st.booleans()):
        return draw(st.sampled_from([ClassMonomial.one, ClassMonomial.zero]))(group, level)
    big = st.integers(0, 3) | st.integers(0, 10**30)
    norm = st.tuples(st.integers(1, 2000), st.integers(1, max(level, 1)), big)
    vec = st.lists(big, max_size=level).map(tuple)
    return ClassMonomial(
        group,
        level,
        draw(st.integers(-3, 3) | st.integers(-(10**40), 10**40)),
        draw(st.lists(norm, max_size=3)) if level else (),
        draw(vec),
        draw(vec),
    )


@st.composite
def arbitrary_differentials(draw):
    """Differentials the constructor accepts, valid or not."""
    return Differential(
        CyclicGroup(draw(st.integers(0, 6))),
        draw(st.integers(2, 10**20)),
        draw(monomials()),
        draw(monomials()),
        draw(st.sampled_from(PROVENANCES)),
    )


@st.composite
def valid_differentials(draw):
    """Family, transported and Leibniz-product differentials, with any provenance."""
    n, i = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    d = hhr_family(n, i)
    kind = draw(st.sampled_from(["family", "transported", "leibniz"]))
    if kind == "transported":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegionWarning)
            d = transport(hu_kriz_seed(i), n)
    elif kind == "leibniz":
        vec = st.lists(st.integers(0, 5), min_size=n + 1, max_size=n + 1).map(tuple)
        try:
            d = leibniz(d, ClassMonomial(d.group, n + 1, 1, (), draw(vec), draw(vec)))
        except LeibnizZeroError:
            pass
    return Differential(d.group, d.page, d.source, d.target, draw(st.sampled_from(PROVENANCES)))


def _wide(level: int, exponent: int | None = None, full: bool = True) -> ClassMonomial:
    """A monomial at ``level`` with every a and u slot set, or only the last."""
    vec = tuple(range(1, level + 1)) if full else (0,) * (level - 1) + (5,)
    group = CyclicGroup(level if exponent is None else exponent)
    return ClassMonomial(group, level, -7, ((3, level, 2), (1, 1, 4)), vec, vec[::-1])


def _reference_bytes(items) -> bytes:
    objs = [
        differential_to_obj(x) if isinstance(x, Differential) else monomial_to_obj(x)
        for x in items
    ]
    return (json.dumps(objs, indent=2) + "\n").encode()


class TestWriter:
    @given(st.lists(monomials() | arbitrary_differentials() | valid_differentials(), max_size=5))
    @example([])
    # past level 64 the basis keys are laid out without the memo
    @example([ClassMonomial(CyclicGroup(70), 70, 3, ((2, 70, 1),), (0,) * 69 + (1,), (1,) * 70)])
    # the last level with a cached layout and the first without, each as an item
    # (its braces at indent 2) and as both endpoints of a differential (indent 4)
    @example([_wide(64), _wide(65), _wide(64, full=False), hhr_family(63, 2), hhr_family(64, 1)])
    @example([Differential(CyclicGroup(65), 3, _wide(64, 65), _wide(65, full=False)), _wide(65)])
    def test_bytes_are_json_dumps_indent_2(self, items):
        assert export_json(items) == _reference_bytes(items)

    def test_rejects_other_items(self):
        with pytest.raises(TypeError, match="cannot export dict"):
            export_json([{}])

    @given(monomials())
    def test_monomial_round_trip(self, m):
        assert import_json(export_json([m])) == [m]

    @given(valid_differentials() | arbitrary_differentials())
    def test_differential_round_trips_exactly_when_valid(self, d):
        problems = validate(d)
        if problems:
            with pytest.raises(JsonSchemaError) as e:
                import_json(export_json([d]))
            assert str(e.value) == f"items[0]: {problems[0]}"
        else:
            (back,) = import_json(export_json([d]))
            assert back == d and back.provenance == d.provenance


class _Int(int):
    """An int subclass: the reader refuses it at its field, by the engine's one
    admission rule, where the reference reader passes it to the constructor."""


def _holds_int_subclass(value) -> bool:
    if isinstance(value, dict):
        return any(map(_holds_int_subclass, value.values()))
    if isinstance(value, list):
        return any(map(_holds_int_subclass, value))
    return type(value) is _Int


class _List(list):
    pass


_BAD_VALUES = [True, False, 1.5, 2.0, "3", -1, -7, None, [], {}, _Int(2)]


def _mutate(rng: random.Random, obj: dict) -> None:
    """One random change to a monomial object, malformed or not."""
    level = obj.get("level") if type(obj.get("level")) is int else 2
    kind = rng.randrange(12)
    if kind == 0:  # a missing key
        obj.pop(rng.choice(["group", "level", "coeff", "norms", "a", "u"]), None)
    elif kind == 1:  # a bad value at a scalar field
        obj[rng.choice(["group", "level", "coeff"])] = rng.choice(_BAD_VALUES)
    elif kind == 2:  # level above the group, or at its edge
        group = obj.get("group")
        obj["level"] = group + rng.choice([0, 1, 2]) if type(group) is int else 1
    elif kind == 3:  # norms that are not a list
        obj["norms"] = rng.choice([None, {}, "[]", (1, 1, 1), 3])
    elif kind == 4 and isinstance(obj.get("norms"), list):  # a malformed triple
        obj["norms"].append(rng.choice([[1, 1], [1, 1, 1, 1], [], "abc", (1, 1, 1), 5, None]))
    elif kind == 5 and isinstance(obj.get("norms"), list):  # a bad value in a triple
        triple = [rng.randint(1, 4), rng.randint(1, max(level, 1)), rng.randint(0, 3)]
        triple[rng.randrange(3)] = rng.choice(_BAD_VALUES + [0])
        obj["norms"].insert(rng.randint(0, len(obj["norms"])), triple)
    elif kind == 6 and isinstance(obj.get("norms"), list):  # j above the level
        j = level + rng.randint(1, 3)
        obj["norms"].insert(rng.randint(0, len(obj["norms"])), [rng.randint(1, 4), j, 1])
    elif kind == 7 and isinstance(obj.get("norms"), list):  # unsorted, repeated, zero exponents
        obj["norms"] += [[rng.randint(1, 3), rng.randint(1, max(level, 1)), rng.randint(0, 2)]
                         for _ in range(rng.randint(1, 4))]
        rng.shuffle(obj["norms"])
    elif kind == 8:  # an exponent map that is not an object
        obj[rng.choice("au")] = rng.choice([None, [], "s", 1])
    elif kind == 9 and isinstance(obj.get("a"), dict) and isinstance(obj.get("u"), dict):
        # a non-str, unknown or out-of-range basis key
        obj[rng.choice("au")][rng.choice(
            [1, None, 1.5, "x", "l0", "l01", "L1", "2s", "s", "s ", "l١",
             f"l{level}", f"l{level + 5}", "l" + "9" * 30]
        )] = 1
    elif kind == 10 and isinstance(obj.get("a"), dict) and isinstance(obj.get("u"), dict):
        # a bad value at a valid basis key
        if level > 0:
            name = rng.choice(("a", "u"))
            key = rng.choice(basis_names(level, "s" if name == "a" else "2s"))
            obj[name][key] = rng.choice(_BAD_VALUES + [0, 10**30])
    elif kind == 11 and isinstance(obj.get("norms"), list):  # a list subclass triple
        obj["norms"].append(_List([1, 1, 1]))


def _outcome(read, obj, path):
    try:
        m = read(obj, path)
    except Exception as e:  # the type and text are what is compared
        return type(e), str(e)
    return repr(m), tuple(map(type, (m.level, m.coeff, *m.a_exp, *m.u_exp)))


def test_import_messages_match_the_reference_reader():
    """obj_to_monomial accepts the monomial the two-pass reader accepted and
    raises its exception type and text, path included, on 3,600 random objects:
    valid ones, and ones with each kind of malformed field.  An object holding
    an int subclass need only raise JsonSchemaError."""
    rng = random.Random(16)
    seen = {"accepted": 0}
    for _ in range(3600):
        group = CyclicGroup(rng.randint(0, 5))
        obj = monomial_to_obj(random_monomial(rng, group, rng.randint(0, group.exponent)))
        obj["norms"] = [list(t) for t in obj["norms"]]
        obj["coeff"] = rng.randint(-4, 4)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _mutate(rng, obj)
        path = rng.choice(["", "items[3]", "items[0].source"])
        got = _outcome(obj_to_monomial, obj, path)
        if _holds_int_subclass(obj):
            assert got[0] is JsonSchemaError, (obj, got)
        else:
            assert got == _outcome(reference_obj_to_monomial, obj, path), obj
        key = "accepted" if isinstance(got[0], str) else got[1].split(": ", 1)[-1][:18]
        seen[key] = seen.get(key, 0) + 1
    assert seen["accepted"] > 500
    for message in [
        "required field is missing", "expected an integer", "must be >= 0", "must be >= 1",
        "level ", "expected a list of", "expected an [i, j, e]", "norm factor (",
        "unknown basis key", "basis slot out of range", "expected an object",
    ]:
        assert any(k.startswith(message[:18]) for k in seen), (message, sorted(seen))


class _Dict(dict):
    """A dict subclass whose ``get`` is not its ``in`` and ``[]``: both readers
    must look its fields up with ``in`` and ``[]``."""

    def get(self, key, default=None):
        return default


_LEVELS = [*range(8), 64, 65]
# a swapped-in field value: a bool, a float, a str, None, an int subclass, 3,001 digits
_SWAPS = [True, 2.5, "1", None, _Int(1), 10**3000, -(10**3000)]


@st.composite
def _wide_items(draw):
    """Monomials and differentials at levels 0-7, 64 and 65, their a and u maps
    empty, sparse or full."""
    level = draw(st.sampled_from(_LEVELS))
    group = CyclicGroup(level + draw(st.integers(0, 2)))

    def vector():
        fill = draw(st.sampled_from(["empty", "sparse", "full"]))
        if fill == "empty":
            return (0,) * level
        low = 1 if fill == "full" else 0
        return tuple(draw(st.lists(st.integers(low, 4), min_size=level, max_size=level)))

    def monomial():
        norms = draw(st.lists(
            st.tuples(st.integers(1, 2048), st.integers(1, max(level, 1)), st.integers(0, 3)),
            max_size=3,
        )) if level else []
        coeff = draw(st.sampled_from([1, -1, 3]) | st.integers(-(10**20), 10**20))
        return ClassMonomial(group, level, coeff, norms, vector(), vector())

    kind = draw(st.sampled_from(["monomial", "differential", "family"]))
    if kind == "family" and level and group.exponent == level:
        return hhr_family(level - 1, draw(st.integers(1, 3)))
    if kind == "differential":
        page = draw(st.integers(2, 40))
        return Differential(group, page, monomial(), monomial(), draw(st.sampled_from(PROVENANCES)))
    return monomial()


def _mutate_object(draw, obj: dict) -> dict:
    """``obj`` with one change; an object of the dict subclass stays one."""
    kind = draw(st.sampled_from(
        ["drop", "swap", "extra", "reorder", "subclass", "norms", "map", "key"]
    ))
    keys = list(obj)
    if kind == "drop" and keys:
        obj.pop(draw(st.sampled_from(keys)))
    elif kind == "swap" and keys:
        obj[draw(st.sampled_from(keys))] = draw(st.sampled_from(_SWAPS))
    elif kind == "extra":
        obj[draw(st.sampled_from(["extra", "Group", "", "page"]))] = draw(
            st.sampled_from([1, None, "x", [], {}])
        )
    elif kind == "reorder":
        obj = type(obj)(reversed(list(obj.items())))
    elif kind == "subclass":
        obj = _Dict(obj)
    elif kind == "norms" and isinstance(dict.get(obj, "norms"), list) and obj["norms"]:
        norms = obj["norms"]
        idx = draw(st.integers(0, len(norms) - 1))
        change = draw(st.sampled_from(["list", "triple", "value"]))
        if change == "list":
            obj["norms"] = _List(norms)
        elif change == "triple":
            norms[idx] = _List(norms[idx])
        else:
            norms[idx][draw(st.integers(0, 2))] = draw(st.sampled_from(_SWAPS + [0, 2049]))
    elif kind == "map" and type(dict.get(obj, "level")) is int and 0 <= obj["level"] <= 65:
        name = draw(st.sampled_from(["a", "u"]))
        names = basis_names(obj["level"], "s" if name == "a" else "2s")
        obj[name] = draw(st.sampled_from([{}, {k: 1 for k in names}, {k: 0 for k in names}]))
    elif kind == "key" and isinstance(dict.get(obj, "a"), dict):
        obj["a"][draw(st.sampled_from(["l0", "s", "2s", "l64", "l65", "l99", 7]))] = (
            draw(st.sampled_from([1] + _SWAPS))
        )
    return obj


def _read_outcome(read, *args):
    try:
        value = read(*args)
    except JsonSchemaError as e:
        return "error", e.path, str(e)
    return "value", repr(value)


@st.composite
def _mutated_documents(draw):
    """An export document of up to three items, parsed, with one to three
    objects changed, top-level or a differential's endpoint."""
    items = draw(st.lists(_wide_items(), min_size=1, max_size=3))
    doc = json.loads(export_json(items))
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.integers(0, len(doc) - 1))
        where = draw(st.sampled_from([None, "source", "target"]))
        if where and isinstance(doc[idx], dict) and isinstance(dict.get(doc[idx], where), dict):
            doc[idx][where] = _mutate_object(draw, doc[idx][where])
        elif isinstance(doc[idx], dict):
            doc[idx] = _mutate_object(draw, doc[idx])
    if draw(st.booleans()):
        doc = _List(doc)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_documents())
def test_reader_matches_the_eager_reader_on_mutated_documents(doc):
    """Each object of a mutated export document reads as the eager reader
    read it, value or error with its path and message, through obj_to_* (which
    see the dict and list subclasses) and through import_json (which sees the
    document as JSON text)."""
    for idx, obj in enumerate(doc):
        path = f"items[{idx}]"
        if isinstance(obj, dict) and "page" in obj:
            pair = (obj_to_differential, eager_obj_to_differential)
        else:
            pair = (obj_to_monomial, eager_obj_to_monomial)
        assert _read_outcome(pair[0], obj, path) == _read_outcome(pair[1], obj, path)
    text = json.dumps(doc)
    assert _read_outcome(import_json, text) == _read_outcome(eager_import_json, text)


_DIFF = differential_to_obj(transport(hu_kriz_seed(2), 1))
_FIELDS = [(None, key) for key in _DIFF] + [(end, key) for end in ("source", "target")
                                            for key in _DIFF[end]]


@pytest.mark.parametrize("value", ["drop", *_SWAPS], ids=repr)
@pytest.mark.parametrize("where, key", _FIELDS, ids=lambda x: str(x))
def test_each_field_dropped_or_swapped_reads_as_the_eager_reader(where, key, value):
    """Every field of a differential and of its endpoints, dropped or swapped
    for each value of _SWAPS, reads as the eager reader reads it."""
    doc = json.loads(json.dumps([_DIFF]))
    obj = doc[0] if where is None else doc[0][where]
    if value == "drop":
        del obj[key]
    else:
        obj[key] = value
    text = json.dumps(doc)
    assert _read_outcome(import_json, text) == _read_outcome(eager_import_json, text)

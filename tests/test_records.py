"""The record contract of the engine's value classes.

Each value is a plain class on ``reps._Record``: its fields, in order, are
``__match_args__``; its repr is ``Name(field=value, ...)``; equality and hash
read the fields (``Differential`` leaves out its provenance); and a field can
be neither assigned nor deleted.  ``ChartDocument`` alone is mutable and
unhashable.  The reprs below are the ones the classes printed as frozen
dataclasses, so a value prints as it always did.
"""

import copy
import pickle

import pytest

from sliceshear import (
    ChartDocument,
    ClassMonomial,
    CyclicGroup,
    Differential,
    GuideSpec,
    Line,
    PermanentCycleFact,
    ShearContext,
    TowerEntry,
    VanishingProfile,
    VirtualRep,
    Violation,
    hhr_family,
    parse,
    tau,
    tower_report,
)

C2, C4 = CyclicGroup(1), CyclicGroup(2)
REP = "VirtualRep(group=CyclicGroup(exponent=2), coeffs=(1, -2, 3))"
CHART = "group C2\nwindow -2 4 4\nclass x = aS\ndiff 3: u2S -> Nt[1,1]*aS^3\nguide L1\n"


def _mono(group, level, norms, a, u, coeff=1):
    return (
        f"ClassMonomial(group=CyclicGroup(exponent={group}), level={level}, coeff={coeff}, "
        f"norms={norms}, a_exp={a}, u_exp={u})"
    )


def _hhr_repr(group, page, provenance):
    source = _mono(group, group, "()", "(0, 0)", "(1, 0)")
    target = _mono(group, group, "((1, 2, 1),)", "(3, 1)", "(0, 0)")
    return (
        f"Differential(group=CyclicGroup(exponent={group}), page={page}, source={source}, "
        f"target={target}, provenance={provenance!r})"
    )


# name: (a builder that passes every field by keyword, the fields in order,
# the value's repr)
RECORDS = {
    "CyclicGroup": (lambda: CyclicGroup(exponent=2), ("exponent",), "CyclicGroup(exponent=2)"),
    "VirtualRep": (
        lambda: VirtualRep(group=C4, coeffs=(1, -2, 3)), ("group", "coeffs"), REP,
    ),
    "Line": (
        lambda: Line(slope=3, intercept=-1), ("slope", "intercept"),
        "Line(slope=3, intercept=-1)",
    ),
    "ClassMonomial": (
        lambda: ClassMonomial(
            group=C4, level=2, coeff=3, norms=((1, 2, 1),), a_exp=(0, 1), u_exp=(1, 0)
        ),
        ("group", "level", "coeff", "norms", "a_exp", "u_exp"),
        _mono(2, 2, "((1, 2, 1),)", "(0, 1)", "(1, 0)", coeff=3),
    ),
    "Differential": (
        lambda: Differential(
            group=C4, page=5, source=hhr_family(1, 1).source, target=hhr_family(1, 1).target,
            provenance="generated",
        ),
        ("group", "page", "source", "target", "provenance"),
        _hhr_repr(2, 5, "generated"),
    ),
    "PermanentCycleFact": (
        lambda: PermanentCycleFact(
            truncation=1, oriented_rep=VirtualRep.of(C2, sigma=2), citation="Hu-Kriz"
        ),
        ("truncation", "oriented_rep", "citation"),
        "PermanentCycleFact(truncation=1, oriented_rep=VirtualRep(group=CyclicGroup(exponent=1), "
        "coeffs=(0, 2)), citation='Hu-Kriz')",
    ),
    "GuideSpec": (
        lambda: GuideSpec(kind="vanish", k=1, h=4), ("kind", "k", "h"),
        "GuideSpec(kind='vanish', k=1, h=4)",
    ),
    "ChartDocument": (
        lambda: parse(CHART),
        ("group", "grading", "window", "classes", "diffs", "guides"),
        "ChartDocument(group=CyclicGroup(exponent=1), grading=VirtualRep(group=CyclicGroup("
        "exponent=1), coeffs=(0, 0)), window=(-2, 4, 4), classes=[('x', "
        + _mono(1, 1, "()", "(1,)", "(0,)")
        + ")], diffs=[Differential(group=CyclicGroup(exponent=1), page=3, source="
        + _mono(1, 1, "()", "(0,)", "(1,)")
        + ", target="
        + _mono(1, 1, "((1, 1, 1),)", "(3,)", "(0,)")
        + ", provenance='user')], guides=[GuideSpec(kind='L', k=1, h=None)])",
    ),
    "ShearContext": (
        lambda: ShearContext(source_group=C2, k=1, grading=VirtualRep.zero(C4)),
        ("source_group", "k", "grading"),
        "ShearContext(source_group=CyclicGroup(exponent=1), k=1, "
        "grading=VirtualRep(group=CyclicGroup(exponent=2), coeffs=(0, 0, 0)))",
    ),
    "TowerEntry": (
        lambda: TowerEntry(
            k=1, line=Line(1, 0), threshold=tower_report(1, 1)[0].threshold, target_group=C2,
            target_height=1,
        ),
        ("k", "line", "threshold", "target_group", "target_height"),
        "TowerEntry(k=1, line=Line(slope=1, intercept=0), threshold=Fraction(0, 1), "
        "target_group=CyclicGroup(exponent=1), target_height=1)",
    ),
    "VanishingProfile": (
        lambda: VanishingProfile(n=1, h=2, grading=VirtualRep.zero(C4)),
        ("n", "h", "grading"),
        "VanishingProfile(n=1, h=2, grading=VirtualRep(group=CyclicGroup(exponent=2), "
        "coeffs=(0, 0, 0)))",
    ),
    "Violation": (
        lambda: Violation(k=None, clause="cone", message="msg"), ("k", "clause", "message"),
        "Violation(k=None, clause='cone', message='msg')",
    ),
}
FROZEN = [name for name in RECORDS if name != "ChartDocument"]


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__match_args__}


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_repr_and_keywords(name):
    build, fields, want = RECORDS[name]
    value = build()
    assert type(value).__name__ == name
    assert type(value).__match_args__ == fields
    assert repr(value) == want
    # positional and keyword construction from the fields give an equal value
    assert type(value)(*_fields(value).values()) == value == type(value)(**_fields(value))


@pytest.mark.parametrize("name", list(RECORDS))
def test_equality_and_hash(name):
    value, twin = RECORDS[name][0](), RECORDS[name][0]()
    assert value == twin and not value != twin and value is not twin
    assert value != object() and (value == object()) is False
    if name == "ChartDocument":
        assert type(value).__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) and len({value, twin}) == 1


def test_a_differential_compares_without_its_provenance():
    d = hhr_family(1, 1)
    user = Differential(d.group, d.page, d.source, d.target)
    assert user.provenance == "user" and d.provenance == "generated"
    assert user == d and hash(user) == hash(d)
    assert repr(user) == _hhr_repr(2, 5, "user") != repr(d)
    assert Differential(d.group, 7, d.source, d.target) != d


@pytest.mark.parametrize("name", FROZEN)
def test_a_value_cannot_change(name):
    value = RECORDS[name][0]()
    before = repr(value)
    for field in (*type(value).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before


def test_a_chart_document_is_mutable():
    doc, window = parse(CHART), (0, 1, 1)
    doc.window = window
    doc.guides.append(GuideSpec("boundary"))
    assert doc.window is window and doc.guides[-1] == GuideSpec(kind="boundary")
    del doc.window
    assert "window" not in vars(doc)
    empty = ChartDocument(C2, VirtualRep.zero(C2))
    assert (empty.window, empty.classes, empty.diffs, empty.guides) == (None, [], [], [])
    assert empty.classes is not ChartDocument(C2, VirtualRep.zero(C2)).classes


@pytest.mark.parametrize("name", list(RECORDS))
@pytest.mark.parametrize(
    "how",
    [
        copy.copy,
        copy.deepcopy,
        lambda value: pickle.loads(pickle.dumps(value, protocol=0)),
        lambda value: pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)),
    ],
    ids=["copy", "deepcopy", "pickle0", "pickle-highest"],
)
def test_copies_and_pickles_round_trip(name, how):
    value = RECORDS[name][0]()
    again = how(value)
    assert type(again) is type(value) and again == value and repr(again) == repr(value)
    if name in FROZEN:
        assert hash(again) == hash(value)
        with pytest.raises(AttributeError):
            setattr(again, type(value).__match_args__[0], None)


def test_memoized_series_survive_a_pickle():
    v = VirtualRep.of(CyclicGroup(3), triv=1, sigma=2, lam={1: 3, 2: -1})
    series = [tau(v, k) for k in range(4)]
    assert "_series" in vars(v)
    again = pickle.loads(pickle.dumps(v))
    copied = copy.deepcopy(v)
    assert [tau(again, k) for k in range(4)] == series == [tau(copied, k) for k in range(4)]

"""Canonical bytes pinned literally, slot by slot.

Parsing ignores factor and key order, so round-trip tests cannot see the
order in which basis slots are printed.  These literals fix it for DSL text,
JSON objects (key order included) and representation literals over C1..C64.
"""

import json

import pytest

from sliceshear import ClassMonomial, CyclicGroup, VirtualRep, export_json, print_canonical

G = CyclicGroup(6)


def all_slots(level: int) -> ClassMonomial:
    """Norms, every a slot and every u slot nonzero, each with its own exponent."""
    a = tuple(range(1, level + 1))
    u = tuple(range(level + 1, 2 * level + 1))
    norms = ((1, 1, 2), (3, level, 1)) if level else ()
    return ClassMonomial(G, level, 1, norms, a, u)


def u_slots(level: int) -> ClassMonomial:
    """Coefficient 5 (no a factor, so no torsion) and every u slot nonzero."""
    return ClassMonomial(G, level, 5, (), (), tuple(range(level + 1, 2 * level + 1)))


# (level, case): (print_canonical, export_json object), captured before the
# basis naming moved behind reps.basis_names
PINNED = {
    (0, 'all'): ('1', '{"group": 6, "level": 0, "coeff": 1, "norms": [], "a": {}, "u": {}}'),
    (0, 'u_coeff'): ('5', '{"group": 6, "level": 0, "coeff": 5, "norms": [], "a": {}, "u": {}}'),
    (1, 'all'): ('Nt[1,1]^2*Nt[3,1]*aS*u2S^2', '{"group": 6, "level": 1, "coeff": 1, "norms": [[1, 1, 2], [3, 1, 1]], "a": {"s": 1}, "u": {"2s": 2}}'),
    (1, 'u_coeff'): ('5*u2S^2', '{"group": 6, "level": 1, "coeff": 5, "norms": [], "a": {}, "u": {"2s": 2}}'),
    (2, 'all'): ('Nt[1,1]^2*Nt[3,2]*aL1^2*aS*uL1^4*u2S^3', '{"group": 6, "level": 2, "coeff": 1, "norms": [[1, 1, 2], [3, 2, 1]], "a": {"s": 1, "l1": 2}, "u": {"2s": 3, "l1": 4}}'),
    (2, 'u_coeff'): ('5*uL1^4*u2S^3', '{"group": 6, "level": 2, "coeff": 5, "norms": [], "a": {}, "u": {"2s": 3, "l1": 4}}'),
    (3, 'all'): ('Nt[1,1]^2*Nt[3,3]*aL2^3*aL1^2*aS*uL2^6*uL1^5*u2S^4', '{"group": 6, "level": 3, "coeff": 1, "norms": [[1, 1, 2], [3, 3, 1]], "a": {"s": 1, "l1": 2, "l2": 3}, "u": {"2s": 4, "l1": 5, "l2": 6}}'),
    (3, 'u_coeff'): ('5*uL2^6*uL1^5*u2S^4', '{"group": 6, "level": 3, "coeff": 5, "norms": [], "a": {}, "u": {"2s": 4, "l1": 5, "l2": 6}}'),
    (4, 'all'): ('Nt[1,1]^2*Nt[3,4]*aL3^4*aL2^3*aL1^2*aS*uL3^8*uL2^7*uL1^6*u2S^5', '{"group": 6, "level": 4, "coeff": 1, "norms": [[1, 1, 2], [3, 4, 1]], "a": {"s": 1, "l1": 2, "l2": 3, "l3": 4}, "u": {"2s": 5, "l1": 6, "l2": 7, "l3": 8}}'),
    (4, 'u_coeff'): ('5*uL3^8*uL2^7*uL1^6*u2S^5', '{"group": 6, "level": 4, "coeff": 5, "norms": [], "a": {}, "u": {"2s": 5, "l1": 6, "l2": 7, "l3": 8}}'),
    (5, 'all'): ('Nt[1,1]^2*Nt[3,5]*aL4^5*aL3^4*aL2^3*aL1^2*aS*uL4^10*uL3^9*uL2^8*uL1^7*u2S^6', '{"group": 6, "level": 5, "coeff": 1, "norms": [[1, 1, 2], [3, 5, 1]], "a": {"s": 1, "l1": 2, "l2": 3, "l3": 4, "l4": 5}, "u": {"2s": 6, "l1": 7, "l2": 8, "l3": 9, "l4": 10}}'),
    (5, 'u_coeff'): ('5*uL4^10*uL3^9*uL2^8*uL1^7*u2S^6', '{"group": 6, "level": 5, "coeff": 5, "norms": [], "a": {}, "u": {"2s": 6, "l1": 7, "l2": 8, "l3": 9, "l4": 10}}'),
    (6, 'all'): ('Nt[1,1]^2*Nt[3,6]*aL5^6*aL4^5*aL3^4*aL2^3*aL1^2*aS*uL5^12*uL4^11*uL3^10*uL2^9*uL1^8*u2S^7', '{"group": 6, "level": 6, "coeff": 1, "norms": [[1, 1, 2], [3, 6, 1]], "a": {"s": 1, "l1": 2, "l2": 3, "l3": 4, "l4": 5, "l5": 6}, "u": {"2s": 7, "l1": 8, "l2": 9, "l3": 10, "l4": 11, "l5": 12}}'),
    (6, 'u_coeff'): ('5*uL5^12*uL4^11*uL3^10*uL2^9*uL1^8*u2S^7', '{"group": 6, "level": 6, "coeff": 5, "norms": [], "a": {}, "u": {"2s": 7, "l1": 8, "l2": 9, "l3": 10, "l4": 11, "l5": 12}}'),
}


def _exported(obj_text: str) -> bytes:
    return (json.dumps([json.loads(obj_text)], indent=2) + "\n").encode()


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("case, build", [("all", all_slots), ("u_coeff", u_slots)])
def test_monomial_bytes(level, case, build):
    text, obj_text = PINNED[(level, case)]
    m = build(level)
    assert print_canonical(m) == text
    assert export_json([m]) == _exported(obj_text)


@pytest.mark.parametrize("level", range(7))
def test_zero_and_unit_bytes(level):
    for m, text in ((ClassMonomial.zero(G, level), "0"), (ClassMonomial.one(G, level), "1")):
        assert print_canonical(m) == text
        obj = f'{{"group": 6, "level": {level}, "coeff": {text}, "norms": [], "a": {{}}, "u": {{}}}}'
        assert export_json([m]) == _exported(obj)


# (exponent, case): str(V), captured the same way
REPS = {
    (0, 'mixed'): '1',
    (0, 'units'): '-1',
    (0, 'no_triv'): '0',
    (1, 'mixed'): '1-2s',
    (1, 'units'): '-1+s',
    (1, 'no_triv'): '2s',
    (2, 'mixed'): '1-2s+3l1',
    (2, 'units'): '-1+s-l1',
    (2, 'no_triv'): '2s-3l1',
    (3, 'mixed'): '1-2s+3l1-4l2',
    (3, 'units'): '-1+s-l1+l2',
    (3, 'no_triv'): '2s-3l1+4l2',
    (4, 'mixed'): '1-2s+3l1-4l2+5l3',
    (4, 'units'): '-1+s-l1+l2-l3',
    (4, 'no_triv'): '2s-3l1+4l2-5l3',
    (5, 'mixed'): '1-2s+3l1-4l2+5l3-6l4',
    (5, 'units'): '-1+s-l1+l2-l3+l4',
    (5, 'no_triv'): '2s-3l1+4l2-5l3+6l4',
    (6, 'mixed'): '1-2s+3l1-4l2+5l3-6l4+7l5',
    (6, 'units'): '-1+s-l1+l2-l3+l4-l5',
    (6, 'no_triv'): '2s-3l1+4l2-5l3+6l4-7l5',
}


@pytest.mark.parametrize("n", range(7))
def test_rep_literals(n):
    g = CyclicGroup(n)
    mixed = tuple((i + 1) * (-1) ** i for i in range(n + 1))
    units = tuple((-1) ** (i + 1) for i in range(n + 1))
    no_triv = (0,) + tuple((i + 2) * (-1) ** i for i in range(n))
    for case, coeffs in (("mixed", mixed), ("units", units), ("no_triv", no_triv)):
        assert str(VirtualRep(g, coeffs)) == REPS[(n, case)]

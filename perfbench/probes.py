"""Probe calls shared by the in-process workloads.

Spans taken from outside cannot see inside parse, emit_svg or transport, so
the traced run repeats the work those make internally, on the same inputs.
"""

from __future__ import annotations

from sliceshear import ClassMonomial, line_L, tau


def monomial(tr, m: ClassMonomial) -> None:
    tr.call("monomials.bidegree", m.bidegree)
    tr.call(
        "monomials.construct", ClassMonomial,
        m.group, m.level, m.coeff, m.norms, m.a_exp, m.u_exp,
    )


def grading(tr, V, top: int) -> None:
    for k in range(top + 1):
        tr.call("reps.tau", tau, V, k)
        tr.call("reps.line_L", line_L, V, k)
        tr.call("reps.fixed_points", V.fixed_points, k)

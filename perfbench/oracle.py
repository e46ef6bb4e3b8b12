"""Reference bidegree and degree arithmetic, written from the README's rules.

Nothing here calls sliceshear: the benchmark checks the engine's outputs
against these formulas, so a shared bug cannot make both sides agree.

A monomial is described by plain data: ``level`` l, ``norms`` as (i, j, e)
triples, and exponent vectors ``a``/``u`` over the slots (sigma or 2sigma,
lambda_1, ..., lambda_{l-1}).  A degree is a coefficient list over the basis
(1, sigma, lambda_1, ..., lambda_{l-1}) of RO(C_{2^l}).
"""

from __future__ import annotations


def slice_dim(norms) -> int:
    return sum(e * ((1 << i) - 1) * (1 << j) for i, j, e in norms)


def filtration(a) -> int:
    return (a[0] if a else 0) + 2 * sum(a[1:])


def stem(norms, a) -> int:
    return slice_dim(norms) - filtration(a)


def torsion_modulus(a) -> int | None:
    """a_sigma kills 2, a_lambda_i kills 2^(i+1); the smallest modulus applies."""
    moduli = [2] if a and a[0] else []
    moduli += [1 << (i + 1) for i in range(1, len(a)) if a[i]]
    return min(moduli) if moduli else None


def is_zero_class(coeff: int, a) -> bool:
    modulus = torsion_modulus(a)
    return (coeff % modulus if modulus else coeff) == 0


def degree(level: int, norms, a, u) -> list[int]:
    """RO(C_{2^level}) degree: norms add (2^i-1)e regular reps of C_{2^j},
    a_W adds -W, u_W adds |W| - W."""
    deg = [0] * (1 if level == 0 else level + 1)
    for i, j, e in norms:
        mult = e * ((1 << i) - 1)
        deg[0] += mult
        deg[1] += mult
        for t in range(1, j):
            deg[1 + t] += mult << (t - 1)
    for slot, e in enumerate(a):
        deg[1 + slot] -= e
    for slot, e in enumerate(u):
        deg[0] += 2 * e
        deg[1 + slot] -= 2 * e if slot == 0 else e
    return deg


def dimension(deg: list[int]) -> int:
    return deg[0] + sum(deg[1:2]) + 2 * sum(deg[2:])


def fixed_points(deg: list[int], k: int) -> list[int]:
    """C_{2^k}-fixed part over the quotient: sigma survives iff k <= n-1,
    lambda_t iff k <= n-1-t."""
    n = len(deg) - 1 if len(deg) > 1 else 0
    out = [0] * (1 if n - k == 0 else n - k + 1)
    out[0] = deg[0]
    if k <= n - 1:
        out[1] = deg[1]
    for t in range(1, n):
        if k <= n - 1 - t:
            out[1 + t] = deg[1 + t]
    return out


def shearing_invariants_hold(src, out, k: int) -> bool:
    """I1-I3 for a correspondence ``src`` -> ``out`` k steps up.

    Each side is (level, norms, a, u).  I1: the C_{2^k}-fixed points of the
    target degree equal the source degree.  I2: target filtration equals
    2^k (source filtration + |source degree|) - |target degree|.  I3: the
    stem t - s is preserved.
    """
    d_src, d_out = degree(*src), degree(*out)
    if fixed_points(d_out, k) != d_src:
        return False
    f_src, f_out = filtration(src[2]), filtration(out[2])
    if f_out != (1 << k) * (f_src + dimension(d_src)) - dimension(d_out):
        return False
    return stem(src[1], src[2]) == stem(out[1], out[2])


def family_page(n: int, i: int) -> int:
    """Page of the slice differential on u_{2sigma}^(2^(i-1)) over C_{2^(n+1)}."""
    return (1 << (n + 1)) * ((1 << i) - 1) + 1


def family_text(n: int, i: int) -> tuple[int, str, str]:
    """(page, source, target) of that differential in canonical DSL text."""
    power = (1 << i) - 1
    factors = [f"Nt[{i},{n + 1}]"]
    for t in range(n, 0, -1):
        factors.append(_pow(f"aL{t}", power << (t - 1)))
    factors.append(_pow("aS", power + (1 << i)))
    return family_page(n, i), _pow("u2S", 1 << (i - 1)), "*".join(factors)


def family_exponents(n: int, i: int):
    """(level, norms, a, u) of source and target of that differential."""
    level = n + 1
    power = (1 << i) - 1
    src = (level, (), (0,) * level, ((1 << (i - 1)),) + (0,) * n)
    a = (power + (1 << i),) + tuple(power << (t - 1) for t in range(1, level))
    tgt = (level, ((i, level, 1),), a, (0,) * level)
    return src, tgt


def _pow(token: str, e: int) -> str:
    return token if e == 1 else f"{token}^{e}"

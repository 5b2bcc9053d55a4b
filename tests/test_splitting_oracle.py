"""Determinant classes against the splitting principle, with no determinant.

On the truncated polynomial ring in x_1..x_m and y_1..y_n, each of degree u
(1 mod 2, 4 in integer mode), let E = prod(1 + x_a) and F = prod(1 + y_b).
The size-r class matrix of c(E - F) centred at k has the determinant
s_lambda(X - Y), lambda = (r^k) (k rows of length r), truncated above the top
degree (dual Jacobi-Trudi and the supersymmetric Schur function: Macdonald,
Symmetric Functions and Hall Polynomials, I.3 ex. 23 and I.5; Fulton-Pragacz,
Schubert Varieties and Degeneracy Loci, ch. 3):

    s_lambda(X - Y) = sum over mu inside lambda of
                      (-1)^(|lambda| - |mu|) s_mu(X) s_(lambda'/mu')(Y),

each Schur function a sum over semistandard (skew) tableaux.  The oracle
enumerates those tableaux; it calls no determinant, no inverse of a total
class and no Jacobi-Trudi identity of the library.
"""

import itertools
from collections import Counter
from functools import cache, reduce
from operator import mul

from hypothesis import given, settings, strategies as st

from jetstrata.charclass import VirtualBundle, _porteous
from jetstrata.tensor import truncated_polynomial_ring

# The largest top degree, in units u, per number of generators m + n: each
# ring keeps at most about 500 labels.
TOP_UNITS = {0: 16, 1: 16, 2: 16, 3: 12, 4: 8, 5: 6, 6: 5}


def tableau_contents(shape, inner, letters):
    """The content (the count of each of ``letters`` letters) of every
    semistandard tableau of the skew shape ``shape``/``inner``: rows weakly
    increase and columns strictly increase."""
    cells = [(row, col) for row, length in enumerate(shape) for col in range(inner[row], length)]
    filled = {}

    def fill(index):
        if index == len(cells):
            content = Counter(filled.values())
            yield tuple(content[letter] for letter in range(letters))
            return
        row, col = cells[index]
        low = max(filled.get((row, col - 1), 0), filled.get((row - 1, col), -1) + 1)
        for letter in range(low, letters):
            filled[row, col] = letter
            yield from fill(index + 1)
        filled.pop((row, col), None)

    return list(fill(0))


def conjugate(partition, width):
    return [sum(part > column for part in partition) for column in range(width)]


def schur_difference(r, k, m, n):
    """s_(r^k)(X - Y) as {exponents of x_1..x_m then y_1..y_n: coefficient}."""
    transposed = [k] * r  # lambda' = (k^r)
    polynomial = Counter()
    for parts in itertools.combinations_with_replacement(range(r + 1), k):
        mu = sorted(parts, reverse=True)
        sign = -1 if (r * k - sum(mu)) % 2 else 1
        for xs in tableau_contents(mu, [0] * k, m):
            for ys in tableau_contents(transposed, conjugate(mu, r), n):
                polynomial[xs + ys] += sign
    return polynomial


@cache
def split_ring(mode, m, n, top_units):
    """The truncated polynomial ring on x_1..x_m, y_1..y_n of degree u under
    top degree u * ``top_units``, with its generators as elements."""
    u = 1 if mode == "mod2" else 4
    names = [f"x{a}" for a in range(1, m + 1)] + [f"y{b}" for b in range(1, n + 1)]
    if not names:
        names = ["z"]  # a ring with no x or y still needs a top degree
    fundamental = names[0] if top_units == 1 else f"{names[0]}^{top_units}"
    ring = truncated_polynomial_ring(mode, u * top_units, [(name, u) for name in names], fundamental=fundamental)
    return ring, [ring.basis_element(name) for name in names[: m + n]]


def oracle_value(ring, generators, polynomial):
    total = ring.zero()
    for exponents, coefficient in polynomial.items():
        factors = [g for g, e in zip(generators, exponents) for _ in range(e)]
        total = total + coefficient * reduce(mul, factors, ring.unit())
    return total


def test_tableau_counts_are_the_known_ones():
    # s_(2,1) and s_(2,2) in three variables have 8 and 6 tableaux, the
    # disconnected skew shape (2,1)/(1) in two letters 2 * 2, and a column
    # of three cells none in two letters.
    assert len(tableau_contents([2, 1], [0, 0], 3)) == 8
    assert len(tableau_contents([2, 2], [0, 0], 3)) == 6
    assert len(tableau_contents([2, 1], [1, 0], 2)) == 4
    assert tableau_contents([1, 1, 1], [0, 0, 0], 2) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_porteous_classes_are_the_schur_functions_of_the_difference(data):
    mode = data.draw(st.sampled_from(["mod2", "integer_mod_torsion"]), label="mode")
    m, n = data.draw(st.integers(0, 3), label="m"), data.draw(st.integers(0, 3), label="n")
    r, k = data.draw(st.integers(0, 4), label="r"), data.draw(st.integers(0, 4), label="k")
    # Mostly at or just above the class's degree r*k, so that it is nonzero
    # or truncated at the top.
    top_units = min(max(r * k + data.draw(st.integers(-1, 1), label="slack"), 1), TOP_UNITS[m + n])
    ring, generators = split_ring(mode, m, n, top_units)
    xs, ys = generators[:m], generators[m:]
    positive = reduce(mul, [ring.unit() + x for x in xs], ring.unit())
    negative = reduce(mul, [ring.unit() + y for y in ys], ring.unit())
    value = _porteous(VirtualBundle(positive, negative), 0, k, r, "r").value
    assert value == oracle_value(ring, generators, schur_difference(r, k, m, n))

"""Truncated-polynomial arithmetic written independently of jetstrata.

The benchmark builds every ring it feeds the program from this module and
checks every obstruction class the program reports against it, so nothing
here may import the package under test.

A ring is Z[g_1..g_r] (Pontrjagin, integer) or F_2[g_1..g_r] (Stiefel-Whitney,
mod 2) truncated above a top degree.  An element is a dict from exponent
tuples to nonzero coefficients.
"""

from __future__ import annotations

from itertools import product as _cartesian


class TruncPoly:
    def __init__(self, names, degrees, top: int, mod2: bool):
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.top = top
        self.mod2 = mod2
        ranges = [range(top // d + 1) for d in self.degrees]
        found = [e for e in _cartesian(*ranges) if self.degree(e) <= top]
        self.monomials = sorted(found, key=lambda e: (self.degree(e), e))
        self.unit_exp = (0,) * len(self.names)

    def degree(self, e) -> int:
        return sum(x * d for x, d in zip(e, self.degrees))

    def label(self, e) -> str:
        parts = []
        for name, x in zip(self.names, e):
            if x == 1:
                parts.append(name)
            elif x > 1:
                parts.append(f"{name}^{x}")
        return "*".join(parts) or "1"

    def _norm(self, c: int) -> int:
        return c % 2 if self.mod2 else c

    def element(self, terms) -> dict:
        out = {}
        for e, c in terms.items():
            c = self._norm(c)
            if c:
                out[e] = c
        return out

    def one(self) -> dict:
        return {self.unit_exp: 1}

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for e, c in y.items():
            out[e] = out.get(e, 0) + c
        return self.element(out)

    def scale(self, x: dict, k: int) -> dict:
        return self.element({e: c * k for e, c in x.items()})

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        top = self.top
        for ea, ca in x.items():
            da = self.degree(ea)
            for eb, cb in y.items():
                if da + self.degree(eb) > top:
                    continue
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return self.element(out)

    def component(self, x: dict, degree: int) -> dict:
        return {e: c for e, c in x.items() if self.degree(e) == degree}

    def inverse(self, x: dict) -> dict:
        """Inverse of 1 + y as the finite geometric series of -y."""
        if self.component(x, 0) != self.one():
            raise ValueError("total class needs unit leading term")
        minus_y = self.scale({e: c for e, c in x.items() if e != self.unit_exp}, -1)
        total, power = self.one(), self.one()
        while True:
            power = self.mul(power, minus_y)
            if not power:
                return total
            total = self.add(total, power)

    def det(self, matrix) -> dict:
        """Laplace expansion along rows, memoized on the set of used columns."""
        size = len(matrix)
        memo: dict = {}

        def minor(row: int, used: int) -> dict:
            if row == size:
                return self.one()
            key = (row, used)
            if key not in memo:
                acc: dict = {}
                free_before = 0
                for col in range(size):
                    if used >> col & 1:
                        continue
                    entry = matrix[row][col]
                    if entry:
                        term = self.mul(entry, minor(row + 1, used | 1 << col))
                        acc = self.add(acc, self.scale(term, -1) if free_before % 2 else term)
                    free_before += 1
                memo[key] = acc
            return memo[key]

        return minor(0, 0)

    def to_labels(self, x: dict) -> dict:
        return {self.label(e): c for e, c in x.items()}

    def to_spec(self, x: dict) -> list:
        return [{"label": self.label(e), "coeff": c} for e, c in sorted(x.items(), key=lambda kv: (self.degree(kv[0]), kv[0]))]

    def presentation(self, fundamental) -> dict:
        """Ring document in the program's input format, products listed for
        every unordered pair of non-unit monomials whose degrees fit."""
        nonunit = self.monomials[1:]
        products = []
        for i, ea in enumerate(nonunit):
            da = self.degree(ea)
            for eb in nonunit[i:]:
                if da + self.degree(eb) <= self.top:
                    e = tuple(a + b for a, b in zip(ea, eb))
                    products.append(
                        {"a": self.label(ea), "b": self.label(eb), "result": [{"label": self.label(e), "coeff": 1}]}
                    )
        return {
            "mode": "mod2" if self.mod2 else "integer_mod_torsion",
            "topDim": self.top,
            "basis": [{"label": self.label(e), "degree": self.degree(e)} for e in self.monomials],
            "products": products,
            "fundamental": self.label(fundamental),
            "orientable": True,
        }


def virtual_class(ring: TruncPoly, positive: dict, negative: dict, j: int) -> dict:
    """j-th class of the virtual bundle positive/negative: degree j mod 2,
    degree 4j integrally; index 0 is the unit and negative indices vanish."""
    if j < 0:
        return {}
    if j == 0:
        return ring.one()
    total = ring.mul(positive, ring.inverse(negative))
    return ring.component(total, j if ring.mod2 else 4 * j)


def toeplitz_det(ring: TruncPoly, positive: dict, negative: dict, center: int, size: int) -> dict:
    """Determinant of the size-square matrix with class center+s-t at (s, t)."""
    classes = {j: virtual_class(ring, positive, negative, j) for j in range(center - size + 1, center + size)}
    return ring.det([[classes[center + s - t] for t in range(size)] for s in range(size)])


def int_det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1

"""Independent oracles the test suite checks the library against.

Nothing here reuses the library's algorithms: the Lie closure oracle works
with actual matrix brackets and linear spans, the enumeration oracle walks
permutations, the 1-d oracles integrate profiles with adaptive
quadrature, the square-form oracle adds one term at a time in a Python
loop, and the record oracle builds plain values for ``json.dumps``.
Values frozen into tests were produced by these routines.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np
from scipy.integrate import quad

from spherebl.cli import _write_json
from spherebl.extremal import DivergenceReport, GrowthReport, NormScanReport
from spherebl.symmetry import EdgeSet, MultiIndex


def rotation_matrix_generator(n: int, i: int, j: int) -> np.ndarray:
    """Matrix of the vector field rotating the (i, j) coordinate plane."""
    m = np.zeros((n, n))
    m[j - 1, i - 1] = 1.0
    m[i - 1, j - 1] = -1.0
    return m


class _Span:
    """Incremental linear span of flattened matrices (Gram-Schmidt)."""

    def __init__(self, dim: int):
        self.basis: list[np.ndarray] = []
        self.dim = dim

    def contains(self, mat: np.ndarray, tol: float = 1e-9) -> bool:
        v = mat.ravel().astype(float)
        for b in self.basis:
            v = v - np.dot(v, b) * b
        return float(np.linalg.norm(v)) <= tol * max(1.0, float(np.linalg.norm(mat)))

    def add(self, mat: np.ndarray, tol: float = 1e-9) -> bool:
        """Add to the span; True when the matrix was independent."""
        v = mat.ravel().astype(float)
        for b in self.basis:
            v = v - np.dot(v, b) * b
        norm = float(np.linalg.norm(v))
        if norm <= tol * max(1.0, float(np.linalg.norm(mat))):
            return False
        self.basis.append(v / norm)
        return True


def bracket_closure_oracle(n: int, edges) -> frozenset[tuple[int, int]]:
    """Edges of the subalgebra that the rotations ``edges`` generate, by brute force.

    Grows a generating list of matrices, bracketing every pair until the
    span stops growing, then tests each basis rotation for membership.
    """
    gens = [rotation_matrix_generator(n, i, j) for i, j in sorted(set(edges))]
    span = _Span(n * n)
    work = []
    for g in gens:
        if span.add(g):
            work.append(g)
    frontier = list(work)
    while frontier:
        new = []
        for a in frontier:
            for b in work:
                c = a @ b - b @ a
                if span.add(c):
                    new.append(c)
        work.extend(new)
        frontier = new
    return frozenset(
        (i, j)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        if span.contains(rotation_matrix_generator(n, i, j))
    )


def ordered_block_assignments(n: int, lengths: tuple[int, ...]) -> set:
    """All ordered tuples of disjoint sorted blocks with the given sizes,
    generated by scanning permutations (independent of the library's
    combination recursion).  Exponential; keep n <= 7."""
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        blocks = []
        pos = 0
        for size in lengths:
            blocks.append(tuple(sorted(perm[pos:pos + size])))
            pos += size
        out.add(tuple(blocks))
    return out


def ordered_block_tuples(n: int, lengths: tuple[int, ...]) -> list[tuple]:
    """Every ordered tuple of disjoint sorted index blocks with the given
    sizes, in lexicographic order: the recursion over index tuples and
    ``itertools.combinations`` that enumerated families before blocks were
    bitmasks.  The order is part of the reports, so it is kept here as the
    reference."""

    def assign(remaining: tuple[int, ...], sizes: tuple[int, ...]):
        if not sizes:
            yield ()
            return
        for block in itertools.combinations(remaining, sizes[0]):
            rest = tuple(i for i in remaining if i not in block)
            for tail in assign(rest, sizes[1:]):
                yield (block,) + tail

    return list(assign(tuple(range(1, n + 1)), tuple(lengths)))


def class_order_by_vectors(n: int, members: list[tuple]) -> list[list[tuple]]:
    """Group block tuples that differ only by the order of equal-size blocks,
    and order the groups by the 0/1 vectors of their canonical blocks."""
    groups: dict = {}
    for blocks in members:
        canon = sorted(blocks, key=lambda b: (-len(b), b[0]))
        key = tuple(tuple(1 if i in b else 0 for i in range(1, n + 1)) for b in canon)
        groups.setdefault(key, []).append(blocks)
    return [groups[k] for k in sorted(groups)]


def exponent_by_counting(families_edges: list[frozenset]) -> int:
    """Most recurrent missing edge, counted naively over explicit edge sets."""
    n_edges = set()
    for es in families_edges:
        n_edges |= es
    universe = set()
    verts = {v for e in n_edges for v in e}
    top = max(verts) if verts else 0
    universe = set(itertools.combinations(range(1, top + 1), 2))
    best = 0
    for e in universe:
        best = max(best, sum(1 for es in families_edges if e not in es))
    return best


# --- 1-d integral oracles (n = 3, single-variable profiles) -------------------
#
# On the 2-sphere the distribution of one coordinate is exactly uniform on
# [-1, 1], so sphere integrals of single-variable functions reduce to
# (1/2) * int_{-1}^1, with no unknown constant.


def sphere3_single_variable_integral(g, eps_breaks=()) -> float:
    pts = sorted({-1.0, 1.0, 0.0, *eps_breaks})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, _ = quad(g, lo, hi, limit=200)
        total += v
    return 0.5 * total


def truncated_extremal_norm_p(gamma: float, p: float, eps: float) -> float:
    """||f_eps||_p^p on S^2 for the single-edge symmetry, exactly.

    f_eps(t) = max(|t|, eps)^(-gamma) + max(1 - t^2, eps^2)^(-gamma).
    """

    def g(t):
        a = max(abs(t), eps) ** (-gamma)
        b = max(1.0 - t * t, eps * eps) ** (-gamma)
        return (a + b) ** p

    m = math.sqrt(1.0 - eps * eps)
    return sphere3_single_variable_integral(
        g, eps_breaks=(-m, -eps, eps, m))


def radial_lower_bound_exponent(n: int, gamma: float, bracket: int) -> float:
    """Exponent of rho in int rho^(n-2-gamma*B) (1-rho^2)^(-1/2) drho."""
    return n - 2 - gamma * bracket


_RECORD_KIND = {DivergenceReport: "divergence", NormScanReport: "scan", GrowthReport: "growth"}


def square_forms_oracle(coef: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Row i is sum_k coef[i, k] * x_k^2 at the (m, n) points, summed in a
    loop from zero: one multiply and one add per coordinate, k ascending."""
    sq = pts * pts
    out = np.zeros((len(coef), len(pts)))
    for k in range(coef.shape[1]):
        out += coef[:, k:k + 1] * sq[:, k]
    return out


def record_values(value: Any) -> Any:
    """The plain JSON values of a result, built eagerly (the record encoder
    that the one-pass writer replaced).

    Dicts, lists and tuples are walked; a ``MultiIndex`` becomes its 0/1
    list, an ``EdgeSet`` ``{"n", "edges"}`` with its sorted [i, j] pairs, a
    ``Fraction`` ``{"num", "den"}`` and a dataclass a dict of its fields in
    declaration order (``Symmetry.r_mask`` as ``r``, the experiment reports
    after their ``kind``).
    """
    if isinstance(value, MultiIndex):
        return list(value.bits)
    if isinstance(value, (str, int, float, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [record_values(v) for v in value]
    if isinstance(value, dict):
        return {k: record_values(v) for k, v in value.items()}
    if isinstance(value, EdgeSet):
        return {"n": value.n, "edges": [list(e) for e in value.sorted_edges()]}
    if dataclasses.is_dataclass(value):
        cls = type(value)
        out = {"kind": _RECORD_KIND[cls]} if cls in _RECORD_KIND else {}
        for f in dataclasses.fields(cls):
            out["r" if f.name == "r_mask" else f.name] = record_values(getattr(value, f.name))
        return out
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def record_json(value: Any) -> str:
    """The reference bytes of a result: ``json.dumps(..., indent=2)``."""
    return json.dumps(record_values(value), indent=2)


def written(value: Any) -> str:
    """What the CLI's record writer writes for ``value``."""
    buf = io.StringIO()
    _write_json(value, buf.write)
    return buf.getvalue()

"""Kunneth products of builtin table sets with a curve lying in the fibre,
and the oracle checks those products come with.

Tensoring a table with the cohomology of a genus-g curve C gives the table of
the space times C: the indices k, l, q and p add, the member dimension n goes
up by one and the base dimension m stays, since C lies in the fibre.  The
curve's cells all sit on their own perverse centre, so every support window
keeps its shape.  Taking the product t times gives instances with n = 2 + t
whose support boxes grow with n: the scale axis of the benchmark.

Tensoring every term of an exact sequence with one graded space turns each
lane into a direct sum of shifted exact chains.  So the products carry a
free oracle: every template that holds on the family holds on its products,
a +1 on any single cell breaks the lanes through that cell, and a deleted
product table must be recovered by the solver (determined cells equal, open
intervals containing the true value, no contradiction).

Only the tables' own classes are used to build products, so this module
works with whichever import of trigrade made its input.
"""

from __future__ import annotations

import dataclasses


def curve_entries(g: int) -> dict:
    """H* of a smooth genus-g curve, every piece on its perverse centre."""
    if g < 1:
        raise ValueError(f"need curve genus g >= 1, got {g}")
    return {(0, 0, 0, 0): 1, (1, 1, 1, 0): g, (1, 1, 1, 1): g, (2, 2, 2, 1): 1}


def tensor(table, factor: dict):
    """The product table: entries convolve, n goes up by one."""
    out: dict = {}
    for (k, l, q, p), a in table.entries.items():
        for (k2, l2, q2, p2), b in factor.items():
            quad = (k + k2, l + l2, q + q2, p + p2)
            out[quad] = out.get(quad, 0) + a * b
    space = dataclasses.replace(table.space, n=table.space.n + 1)
    return type(table)(space, out)


def product_tables(tables: dict, g: int, t: int) -> dict:
    """Every table of a set tensored t times with the genus-g curve."""
    factor = curve_entries(g)
    out = dict(tables)
    for _ in range(t):
        out = {tag: tensor(tab, factor) for tag, tab in out.items()}
    return out


def applicable(templates: dict, tables: dict) -> list:
    """(name, template) for every template whose spaces the set provides."""
    return [(name, tmpl) for name, tmpl in templates.items()
            if all(s in tables for s in tmpl.spaces())]


def bumped(table, quad):
    """The table with a +1 on one cell."""
    entries = dict(table.entries)
    entries[quad] = entries.get(quad, 0) + 1
    return type(table)(table.space, entries)


def solve_errors(result, truth, degree=None) -> list[str]:
    """Everything wrong with a solve whose deleted table was ``truth``.

    The solve must not end in a contradiction, each open interval must
    contain the true value, and every other cell must equal it.  Cells
    neither table holds are zero on both sides, so comparing the union of
    the two tables' entries covers every determined cell, including a true
    entry outside the support box that the solver could never find.  For a
    per-degree solve only that degree is compared.
    """
    if result.table is None:
        return ["contradiction: " + "; ".join(
            v.relation for v in result.report.violations)]
    errors = []
    open_cells = set()
    for quad, lo, hi in result.underdetermined:
        open_cells.add(quad)
        want = truth.dim(*quad)
        if want < lo or (hi is not None and want > hi):
            errors.append(f"open cell {quad}: [{lo}, {hi}] misses {want}")
    cells = (set(result.table.entries) | set(truth.entries)) - open_cells
    for quad in sorted(q for q in cells if degree is None or q[0] == degree):
        if result.table.dim(*quad) != truth.dim(*quad):
            errors.append(f"cell {quad}: solved {result.table.dim(*quad)}, "
                          f"true {truth.dim(*quad)}")
    if result.determined and not result.report.passed:
        errors.append("completed instance fails its own sequence check")
    return errors

"""Plain-text grid rendering of trigraded tables, and the inverse parser.

Each cohomological degree k and perverse level l with any nonzero entry gets
its own block: rows are the Hodge index p (ascending), columns the weight q
(ascending), and a dot marks a zero cell.  Rendering then parsing gives back
the same table.
"""

from __future__ import annotations

from .spaces import SpaceDescriptor
from .tables import TriFilteredTable


def render_table(table: TriFilteredTable) -> str:
    desc = table.space
    head = f"# table {desc.tag} n={desc.n}"
    if desc.m is not None:
        head += f" m={desc.m}"
    lines = [head]
    by_kl: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (k, l, q, p), v in table.entries.items():
        by_kl.setdefault((k, l), {})[(p, q)] = v
    for (k, l), cells in sorted(by_kl.items()):
        qs = sorted({q for (_, q) in cells})
        # the column header row, then one row per p; the first column is
        # left-aligned, the q columns right-aligned
        rows = [["p\\q", *map(str, qs)]]
        rows += [[str(p), *[str(cells.get((p, q), ".")) for q in qs]]
                 for p in sorted({p for (p, _) in cells})]
        left, *widths = [max(map(len, column)) for column in zip(*rows)]
        lines += ["", f"## k={k} l={l}"]
        lines += ["  ".join([row[0].ljust(left), *map(str.rjust, row[1:], widths)])
                  for row in rows]
    return "\n".join(lines) + "\n"


def render_tables(tables: dict[str, TriFilteredTable]) -> str:
    ordered = sorted(tables.values(), key=lambda t: t.space.order_key)
    return "\n".join(render_table(t) for t in ordered)


def _int(tok: str, lineno: int) -> int:
    """The integer ``tok`` if render_table would write it so: no sign but a
    minus, no leading zero, no underscore, ASCII digits only."""
    try:
        value = int(tok)
    except ValueError:
        value = None
    if value is None or str(value) != tok:
        raise ValueError(f"line {lineno}: bad integer {tok!r}")
    return value


def parse_grid(text: str) -> dict[str, TriFilteredTable]:
    """Parse rendered grids back into tables.  Only what render_table writes
    is read; anything else is a ValueError naming the line."""
    tables: dict[str, TriFilteredTable] = {}
    desc: SpaceDescriptor | None = None
    entries: dict[tuple, int] = {}
    k = l = None
    qs: list[int] = []

    def flush():
        nonlocal entries
        if desc is not None:
            tables[desc.tag] = TriFilteredTable(desc, entries)
        entries = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if line.startswith("# table ") or line == "# table":
            flush()
            if len(toks) == 2:
                raise ValueError(f"line {lineno}: empty table header")
            tag = toks[2]
            fields = {}
            for part in toks[3:]:
                key, _, val = part.partition("=")
                if key not in ("n", "m") or not val:
                    raise ValueError(f"line {lineno}: bad header field {part!r}")
                if key in fields:
                    raise ValueError(f"line {lineno}: repeated header field {key!r}")
                fields[key] = _int(val, lineno)
            if "n" not in fields:
                raise ValueError(f"line {lineno}: table header lacks n")
            try:
                desc = SpaceDescriptor.parse_tag(tag, fields["n"], fields.get("m"))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if desc.tag in tables:
                raise ValueError(f"line {lineno}: duplicate table {desc.tag}")
            k = l = None
        elif line.startswith("## "):
            if desc is None:
                raise ValueError(f"line {lineno}: block before any table header")
            if len(toks) != 3 or toks[1][:2] != "k=" or toks[2][:2] != "l=":
                raise ValueError(f"line {lineno}: bad block header {line!r}")
            k, l = _int(toks[1][2:], lineno), _int(toks[2][2:], lineno)
            qs = []
        elif toks[0] == "p\\q":
            if k is None:
                raise ValueError(f"line {lineno}: column header outside a block")
            qs = [_int(tok, lineno) for tok in toks[1:]]
        else:
            if k is None or not qs:
                raise ValueError(f"line {lineno}: unexpected row {line!r}")
            if len(toks) != len(qs) + 1:
                raise ValueError(
                    f"line {lineno}: expected {len(qs)} cells, got {len(toks) - 1}")
            p = _int(toks[0], lineno)
            for q, tok in zip(qs, toks[1:]):
                if tok == ".":
                    continue
                key = (k, l, q, p)
                if key in entries:
                    raise ValueError(f"line {lineno}: duplicate cell {key}")
                entries[key] = _int(tok, lineno)
                if entries[key] <= 0:
                    raise ValueError(f"line {lineno}: dimension {tok} is not positive")
    flush()
    return tables

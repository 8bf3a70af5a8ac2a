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
        lines += ["", f"## k={k} l={l}"]
        if len(cells) == 1:  # most blocks: written without the row machinery
            ((p, q), v), = cells.items()
            p, q, v = str(p), str(q), str(v)
            left, width = max(3, len(p)), max(len(q), len(v))
            lines += ["p\\q".ljust(left) + "  " + q.rjust(width),
                      p.ljust(left) + "  " + v.rjust(width)]
            continue
        qs = sorted({q for (_, q) in cells})
        # the column header row, then one row per p; the first column is
        # left-aligned, the q columns right-aligned
        rows = [["p\\q", *map(str, qs)]]
        rows += [[str(p), *[str(cells.get((p, q), ".")) for q in qs]]
                 for p in sorted({p for (p, _) in cells})]
        left, *widths = [max(map(len, column)) for column in zip(*rows)]
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
            tables[desc.tag] = TriFilteredTable._of(desc, entries)
        entries = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]  # the kind of line; a malformed header reads as a row
        if head == "#" and (line.startswith("# table ") or line == "# table"):
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
        elif head == "##" and line.startswith("## "):
            if desc is None:
                raise ValueError(f"line {lineno}: block before any table header")
            if len(toks) != 3 or toks[1][:2] != "k=" or toks[2][:2] != "l=":
                raise ValueError(f"line {lineno}: bad block header {line!r}")
            k, l = _int(toks[1][2:], lineno), _int(toks[2][2:], lineno)
            qs = []
        elif head == "p\\q":
            if k is None:
                raise ValueError(f"line {lineno}: column header outside a block")
            qs = [_int(tok, lineno) for tok in toks[1:]]
        else:
            if k is None or not qs:
                raise ValueError(f"line {lineno}: unexpected row {line!r}")
            if len(toks) != len(qs) + 1:
                raise ValueError(
                    f"line {lineno}: expected {len(qs)} cells, got {len(toks) - 1}")
            p = _int(head, lineno)
            for q, tok in zip(qs, toks[1:]):
                if tok == ".":
                    continue
                key = (k, l, q, p)
                if key in entries:
                    raise ValueError(f"line {lineno}: duplicate cell {key}")
                v = _int(tok, lineno)
                if v <= 0:
                    raise ValueError(f"line {lineno}: dimension {tok} is not positive")
                entries[key] = v
    flush()
    return tables

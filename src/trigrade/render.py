"""Plain-text grid rendering of trigraded tables, and the inverse parser.

Each cohomological degree k and perverse level l with any nonzero entry gets
its own block: rows are the Hodge index p (ascending), columns the weight q
(ascending), and a dot marks a zero cell.  Rendering then parsing gives back
the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import SpaceDescriptor
from .tables import TriFilteredTable


@dataclass(frozen=True)
class RenderedTable:
    """One (k, l) block of a table: the dims laid out on a (p, q) grid."""

    space: SpaceDescriptor
    k: int
    l: int
    qs: tuple[int, ...]
    ps: tuple[int, ...]
    cells: dict[tuple[int, int], int]  # (p, q) -> dim, zeros omitted

    def lines(self) -> list[str]:
        widths = [max(len(str(q)), *(len(str(self.cells.get((p, q), ".")))
                                     for p in self.ps)) for q in self.qs]
        head = "p\\q"
        left = max(len(head), *(len(str(p)) for p in self.ps))
        out = [f"## k={self.k} l={self.l}"]
        out.append("  ".join([head.ljust(left)] +
                             [str(q).rjust(w) for q, w in zip(self.qs, widths)]))
        for p in self.ps:
            row = [str(p).ljust(left)]
            for q, w in zip(self.qs, widths):
                row.append(str(self.cells.get((p, q), ".")).rjust(w))
            out.append("  ".join(row))
        return out


def table_blocks(table: TriFilteredTable) -> list[RenderedTable]:
    by_kl: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (k, l, q, p), v in table.entries.items():
        by_kl.setdefault((k, l), {})[(p, q)] = v
    blocks = []
    for (k, l) in sorted(by_kl):
        cells = by_kl[(k, l)]
        qs = tuple(sorted({q for (_, q) in cells}))
        ps = tuple(sorted({p for (p, _) in cells}))
        blocks.append(RenderedTable(table.space, k, l, qs, ps, cells))
    return blocks


def render_table(table: TriFilteredTable) -> str:
    desc = table.space
    head = f"# table {desc.tag} n={desc.n}"
    if desc.m is not None:
        head += f" m={desc.m}"
    lines = [head]
    for block in table_blocks(table):
        lines.append("")
        lines.extend(block.lines())
    return "\n".join(lines) + "\n"


def render_tables(tables: dict[str, TriFilteredTable]) -> str:
    ordered = sorted(tables.values(), key=lambda t: t.space.order_key)
    return "\n".join(render_table(t) for t in ordered)


def parse_grid(text: str) -> dict[str, TriFilteredTable]:
    """Parse rendered grids back into tables.  ValueError on malformed text."""
    tables: dict[str, TriFilteredTable] = {}
    desc: SpaceDescriptor | None = None
    entries: dict[tuple, int] = {}
    k = l = None
    qs: list[int] = []

    def flush():
        nonlocal entries
        if desc is not None:
            if desc.tag in tables:
                raise ValueError(f"duplicate table {desc.tag}")
            tables[desc.tag] = TriFilteredTable(desc, entries)
        entries = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# table "):
            flush()
            parts = line[len("# table "):].split()
            if not parts:
                raise ValueError(f"line {lineno}: empty table header")
            tag = parts[0]
            fields = {}
            for part in parts[1:]:
                key, _, val = part.partition("=")
                if key not in ("n", "m") or not val:
                    raise ValueError(f"line {lineno}: bad header field {part!r}")
                fields[key] = int(val)
            if "n" not in fields:
                raise ValueError(f"line {lineno}: table header lacks n")
            desc = SpaceDescriptor.parse_tag(tag, fields["n"], fields.get("m"))
            k = l = None
        elif line.startswith("## "):
            if desc is None:
                raise ValueError(f"line {lineno}: block before any table header")
            fields = dict(part.partition("=")[::2] for part in line[3:].split())
            try:
                k, l = int(fields["k"]), int(fields["l"])
            except (KeyError, ValueError):
                raise ValueError(f"line {lineno}: bad block header {line!r}") from None
            qs = []
        elif line.startswith("p\\q"):
            if k is None:
                raise ValueError(f"line {lineno}: column header outside a block")
            qs = [int(tok) for tok in line.split()[1:]]
        else:
            if k is None or not qs:
                raise ValueError(f"line {lineno}: unexpected row {line!r}")
            toks = line.split()
            if len(toks) != len(qs) + 1:
                raise ValueError(
                    f"line {lineno}: expected {len(qs)} cells, got {len(toks) - 1}")
            p = int(toks[0])
            for q, tok in zip(qs, toks[1:]):
                if tok == ".":
                    continue
                key = (k, l, q, p)
                if key in entries:
                    raise ValueError(f"line {lineno}: duplicate cell {key}")
                entries[key] = int(tok)
    flush()
    return tables

"""Static schedule rendering: one row per qubit, one column per clock cycle.

Text mode uses a character per cycle (B/R for the two PS gate colors, S for
swaps, M for mixes, x for regions disabled by an active neighboring gate).
SVG mode draws the same layout as colored blocks.  Output is deterministic
for identical inputs; invalid schedules are refused.
"""

from __future__ import annotations

from . import instance as inst
from .instance import Instance
from .schedule import Schedule, validate

BLUE_CHAR = "B"
RED_CHAR = "R"
SWAP_CHAR = "S"
MIX_CHAR = "M"
BLOCKED_CHAR = "x"
IDLE_CHAR = "."

SVG_COLORS = {
    "blue": "#4a7fd4",
    "red": "#d45a4a",
    "swap": "#9e9e9e",
    "mix": "#4ab06a",
    "blocked": "#e0c040",
    "init": "#777777",
}

CELL_W = 18
ROW_H = 22
LEFT_PAD = 64
TOP_PAD = 30


def _checked(instance: Instance, schedule: Schedule) -> None:
    report = validate(instance, schedule)
    if not report.valid:
        rules = ", ".join(sorted(report.rules()))
        raise ValueError(f"refusing to render an invalid schedule ({rules})")


def _span(schedule: Schedule) -> int:
    return max(schedule.total_span, 1)


def _init_states(instance: Instance, schedule: Schedule) -> dict[int, int]:
    if instance.variant != inst.QCC_I:
        return {}
    return {t.location: t.state for t in schedule.tasks if t.kind == "init"}


def _grid(instance: Instance, schedule: Schedule) -> dict[int, list[str]]:
    chip = instance.chip
    span = _span(schedule)
    rows = {q: [IDLE_CHAR] * span for q in chip.qubits}
    for t in schedule.tasks:
        if t.duration == 0:
            continue
        if t.kind == "ps":
            edge = chip.edge_map[t.location]
            char = BLUE_CHAR if edge.ps_color == inst.BLUE else RED_CHAR
        elif t.kind == "swap":
            char = SWAP_CHAR
        else:
            char = MIX_CHAR
        for q in t.qubits:
            for c in range(t.start, t.end):
                rows[q][c] = char
    if instance.variant == inst.QCC_X:
        for t in schedule.tasks:
            if t.duration == 0 or not isinstance(t.location, tuple):
                continue
            u, v = t.location
            for q in chip.crosstalk_zones[u][v]:
                for c in range(t.start, t.end):
                    if rows[q][c] == IDLE_CHAR:
                        rows[q][c] = BLOCKED_CHAR
    return rows


def render_text(instance: Instance, schedule: Schedule) -> str:
    """Character chart; clock cycles run left to right."""
    _checked(instance, schedule)
    rows = _grid(instance, schedule)
    inits = _init_states(instance, schedule)
    span = _span(schedule)
    lines = []
    axis = "".join(str(c % 10) for c in range(span))
    label_w = max(len(_row_label(q, inits)) for q in instance.chip.qubits)
    lines.append(" " * label_w + " |" + axis)
    for q in instance.chip.qubits:
        label = _row_label(q, inits).rjust(label_w)
        lines.append(f"{label} |" + "".join(rows[q]))
    lines.append(f"makespan={schedule.makespan} swaps={schedule.swap_count}")
    return "\n".join(lines) + "\n"


def _row_label(q: int, inits: dict[int, int]) -> str:
    if q in inits:
        return f"n{q}<s{inits[q]}"
    return f"n{q}"


def render_svg(instance: Instance, schedule: Schedule) -> str:
    """Self-contained SVG chart with one lane per qubit."""
    _checked(instance, schedule)
    chip = instance.chip
    span = _span(schedule)
    inits = _init_states(instance, schedule)
    width = LEFT_PAD + span * CELL_W + 20
    height = TOP_PAD + chip.qubit_count * ROW_H + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{LEFT_PAD}" y="14">makespan={schedule.makespan} '
        f'swaps={schedule.swap_count}</text>',
    ]
    for c in range(span + 1):
        x = LEFT_PAD + c * CELL_W
        parts.append(f'<line x1="{x}" y1="{TOP_PAD}" x2="{x}" '
                     f'y2="{TOP_PAD + chip.qubit_count * ROW_H}" '
                     f'stroke="#ddd"/>')
        if c < span:
            parts.append(f'<text x="{x + 4}" '
                         f'y="{TOP_PAD + chip.qubit_count * ROW_H + 14}">'
                         f'{c}</text>')
    lane = {q: TOP_PAD + (i * ROW_H)
            for i, q in enumerate(instance.chip.qubits)}
    for q in chip.qubits:
        y = lane[q] + ROW_H - 8
        parts.append(f'<text x="4" y="{y}">{_row_label(q, inits)}</text>')
        if q in inits:
            parts.append(f'<line x1="{LEFT_PAD}" y1="{lane[q] + 2}" '
                         f'x2="{LEFT_PAD}" y2="{lane[q] + ROW_H - 2}" '
                         f'stroke="{SVG_COLORS["init"]}" stroke-width="3"/>')

    def block(q, start, end, color, label=""):
        x = LEFT_PAD + start * CELL_W
        w = (end - start) * CELL_W
        parts.append(f'<rect x="{x}" y="{lane[q] + 2}" width="{w}" '
                     f'height="{ROW_H - 4}" fill="{color}" stroke="#333"/>')
        if label:
            parts.append(f'<text x="{x + 3}" y="{lane[q] + ROW_H - 8}" '
                         f'fill="#fff">{label}</text>')

    for t in sorted(schedule.tasks, key=lambda t: (t.start, t.qubits)):
        if t.duration == 0:
            continue
        if t.kind == "ps":
            edge = chip.edge_map[t.location]
            color = SVG_COLORS[edge.ps_color]
            label = f"g{t.goal_index}"
        elif t.kind == "swap":
            color = SVG_COLORS["swap"]
            label = "sw"
        else:
            color = SVG_COLORS["mix"]
            label = f"m{t.state}"
        for q in t.qubits:
            block(q, t.start, t.end, color, label)
    for q, row in _grid(instance, schedule).items():
        for c, char in enumerate(row):
            if char == BLOCKED_CHAR:
                x = LEFT_PAD + c * CELL_W + CELL_W // 2
                y = lane[q] + ROW_H // 2
                parts.append(f'<text x="{x - 4}" y="{y + 4}" '
                             f'fill="{SVG_COLORS["blocked"]}">x</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(instance: Instance, schedule: Schedule, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(instance, schedule)
    if fmt == "svg":
        return render_svg(instance, schedule)
    raise ValueError(f"unknown gantt format {fmt!r}")

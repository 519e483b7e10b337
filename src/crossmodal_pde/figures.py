"""Standalone SVG bar charts (mean bars, min/max whiskers) with no plotting
dependencies.  Output is deterministic: same table, same bytes.
"""

from __future__ import annotations

from .experiments import ResultsTable, TableRow
from .tensor import ContractError

WIDTH = 960
HEIGHT = 520
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 150

GROUP_COLORS = {
    "none": "#4878cf",
    "parallel_flipping": "#ee854a",
    "sequence_doubling": "#6acc65",
}
DEFAULT_COLOR = "#956cb4"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _row_label(r: TableRow) -> str:
    pre = "pre" if r.pretrained else "rand"
    return f"{r.dataset}|{r.arch}|{r.method}|{r.bidir_method}|{pre}|d{r.d_model}x{r.n_layers}"


def emit_figure(table: ResultsTable, title: str = "test nRMSE") -> str:
    """Render the results table as a grouped bar chart with min/max whiskers.

    Each bar carries data-mean/data-min/data-max attributes so the geometry is
    machine-checkable against the linear y mapping.
    """
    if not table.rows:
        raise ContractError("cannot plot an empty results table")

    plot_left, plot_right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_top, plot_bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    plot_w = plot_right - plot_left
    plot_h = plot_bottom - plot_top

    y_max = max(r.nrmse_max for r in table.rows) * 1.1
    if y_max <= 0:
        y_max = 1.0

    def y_px(value: float) -> float:
        return plot_bottom - (value / y_max) * plot_h

    n = len(table.rows)
    slot = plot_w / n
    bar_w = min(48.0, 0.6 * slot)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="Helvetica">{_escape(title)}</text>',
    ]

    # y grid and axis labels
    for i in range(6):
        v = y_max * i / 5
        y = y_px(v)
        parts.append(f'<line x1="{plot_left}" y1="{y:.2f}" x2="{plot_right}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{plot_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-size="12" font-family="Helvetica" data-axis-value="{_fmt(v)}">'
                     f'{_fmt(v)}</text>')
    parts.append(f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" '
                 f'y2="{plot_bottom}" stroke="#000000" stroke-width="1.5"/>')
    parts.append(f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" '
                 f'y2="{plot_bottom}" stroke="#000000" stroke-width="1.5"/>')

    for i, r in enumerate(table.rows):
        cx = plot_left + (i + 0.5) * slot
        x0 = cx - bar_w / 2
        top = y_px(r.nrmse_mean)
        color = GROUP_COLORS.get(r.bidir_method, DEFAULT_COLOR)
        parts.append(
            f'<rect x="{x0:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
            f'height="{plot_bottom - top:.2f}" fill="{color}" '
            f'data-mean="{r.nrmse_mean!r}" data-min="{r.nrmse_min!r}" '
            f'data-max="{r.nrmse_max!r}" data-label="{_escape(_row_label(r))}"/>')
        y_lo, y_hi = y_px(r.nrmse_min), y_px(r.nrmse_max)
        parts.append(f'<line x1="{cx:.2f}" y1="{y_hi:.2f}" x2="{cx:.2f}" y2="{y_lo:.2f}" '
                     f'stroke="#222222" stroke-width="1.5" class="whisker"/>')
        for y_w in (y_lo, y_hi):
            parts.append(f'<line x1="{cx - 7:.2f}" y1="{y_w:.2f}" x2="{cx + 7:.2f}" '
                         f'y2="{y_w:.2f}" stroke="#222222" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{cx:.2f}" y="{plot_bottom + 12:.2f}" text-anchor="end" font-size="10" '
            f'font-family="Helvetica" transform="rotate(-45 {cx:.2f} {plot_bottom + 12:.2f})">'
            f'{_escape(_row_label(r))}</text>')

    parts.append(f'<text x="20" y="{(plot_top + plot_bottom) / 2:.1f}" text-anchor="middle" '
                 f'font-size="13" font-family="Helvetica" '
                 f'transform="rotate(-90 20 {(plot_top + plot_bottom) / 2:.1f})">nRMSE</text>')
    parts.append("</svg>")
    return "\n".join(parts)

"""Minimal SVG line charts for assessment CSV files.

Values are plotted exactly as they appear in the CSV: every point carries its
source row in ``data-n`` / ``data-value`` attributes and undefined rows break
the polyline into gaps instead of being interpolated or zeroed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ModelParseError
from .metrics import CSV_HEADER


@dataclass
class Series:
    name: str
    points: list  # (n, value string or None)


_COLUMNS = CSV_HEADER.split(",")
# code points XML 1.0 does not allow in a document, even escaped
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _data_rows(text):
    """(line number, cells) of each data row of a metrics-schema CSV."""
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not numbered or numbered[0][1].strip() != CSV_HEADER:
        raise ModelParseError(f"expected header {CSV_HEADER!r}")
    rows = []
    for lineno, line in numbered[1:]:
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise ModelParseError("wrong number of columns", lineno)
        rows.append((lineno, cells))
    return rows


def series_from_csv(name, text, column) -> Series:
    rows = _data_rows(text)
    if column not in _COLUMNS or column == "n":
        raise ModelParseError(f"no metric column {column!r}")
    index = _COLUMNS.index(column)
    points = []
    for lineno, cells in rows:
        n, cell = cells[0], cells[index]
        try:
            n = int(n)
            if cell != "undefined" and not math.isfinite(float(cell)):
                raise ValueError
        except ValueError:
            raise ModelParseError(
                f"n must be an integer and {column} a finite number or 'undefined'", lineno
            ) from None
        points.append((n, None if cell == "undefined" else cell))
    return Series(name=name, points=points)


def _xml_text(text):
    """``text`` as SVG character data: markup escaped, and code points XML
    cannot hold (control characters, lone surrogates from undecodable file
    names) replaced by U+FFFD."""
    # by hand: xml.sax.saxutils.escape would import urllib.request, http and
    # ssl, about 6 MB of resident memory for every command
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub("\ufffd", text)


def render_chart(series_list, width=720, height=420, title="") -> str:
    """Render series as an SVG line chart with gaps at undefined points."""
    margin = 50
    xs = [n for s in series_list for (n, _) in s.points]
    x_min, x_max = (min(xs), max(xs)) if xs else (0, 1)
    if x_min == x_max:
        x_max = x_min + 1
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def sx(n):
        return margin + plot_w * (n - x_min) / (x_max - x_min)

    def sy(v):
        return margin + plot_h * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{_xml_text(title)}</text>',
    ]
    # axes and y gridlines at 0, 0.5, 1
    parts.append(
        f'<line x1="{margin}" y1="{sy(0)}" x2="{width - margin}" y2="{sy(0)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{sy(0)}" x2="{margin}" y2="{sy(1)}" stroke="black"/>'
    )
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{margin - 6}" y="{sy(tick) + 4}" text-anchor="end" font-size="11">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" font-size="12">trace length</text>'
    )
    for idx, series in enumerate(series_list):
        color = _PALETTE[idx % len(_PALETTE)]
        runs = []
        current = []
        for n, value in series.points:
            if value is None:
                if current:
                    runs.append(current)
                current = []
            else:
                current.append((n, value))
        if current:
            runs.append(current)
        for run in runs:
            if len(run) > 1:
                coords = " ".join(f"{sx(n):.2f},{sy(float(v)):.2f}" for n, v in run)
                parts.append(
                    f'<polyline fill="none" stroke="{color}" points="{coords}"/>'
                )
            for n, v in run:
                parts.append(
                    f'<circle cx="{sx(n):.2f}" cy="{sy(float(v)):.2f}" r="2" '
                    f'fill="{color}" data-n="{n}" data-value="{v}"/>'
                )
        parts.append(
            f'<text x="{width - margin}" y="{margin + 14 * idx}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_xml_text(series.name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Vega-Lite spec builders: the web-renderable half of the figure layer.

The ASCII charts in :mod:`repro.report.ascii_plot` serve terminals; this
module emits the same figures as Vega-Lite v5 specs (strict JSON, see
:mod:`repro.report.export`) and as standalone HTML documents, so a report
server can hand a browser something it renders natively.

Design rules (held constant across every figure):

* one y-axis per chart — two measures of different scale become two
  charts, never a dual axis;
* categorical hues are assigned in the fixed :data:`CATEGORICAL` order,
  never cycled or generated;
* a legend is present whenever two or more series share a plot; a single
  series is named by the title instead;
* thin marks (2 px lines, small points), recessive grid and axes, text in
  ink colors rather than series colors.

Specs are plain dicts; :func:`vl_to_json` serializes them strictly
(``allow_nan=False`` — non-finite floats must already be ``None``), and
:func:`vl_html` wraps a spec in a self-contained HTML page that loads the
vega runtime from a CDN and falls back to showing the spec itself.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from ..errors import ValidationError
from .export import _deep_jsonable

__all__ = [
    "VL_SCHEMA",
    "CATEGORICAL",
    "SURFACE",
    "INK",
    "INK_SECONDARY",
    "INK_MUTED",
    "GRID",
    "AXIS",
    "vl_config",
    "vl_spec",
    "series_rows",
    "vl_line_chart",
    "vl_density_chart",
    "vl_qq_chart",
    "vl_band_line_chart",
    "vl_box_chart",
    "vl_table",
    "vl_to_json",
    "vl_html",
]

VL_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Fixed categorical hue order (slots are assigned, never cycled; the
#: first three validate for any mark adjacency, so figures keep series
#: counts low and fold the rest into facets).
CATEGORICAL: tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
GRID = "#e1e0d9"
AXIS = "#c3c2b7"

_FONT = 'system-ui, -apple-system, "Segoe UI", sans-serif'


def vl_config() -> dict[str, Any]:
    """The shared chart chrome: light surface, recessive grid, ink text."""
    return {
        "background": SURFACE,
        "font": _FONT,
        "view": {"stroke": AXIS},
        "axis": {
            "gridColor": GRID,
            "domainColor": AXIS,
            "tickColor": AXIS,
            "labelColor": INK_SECONDARY,
            "titleColor": INK,
            "labelFontSize": 11,
            "titleFontSize": 12,
        },
        "legend": {
            "labelColor": INK_SECONDARY,
            "titleColor": INK,
            "labelFontSize": 11,
            "titleFontSize": 11,
        },
        "title": {"color": INK, "fontSize": 14, "anchor": "start"},
    }


def vl_spec(
    *,
    title: str,
    width: int | Mapping[str, int] = 560,
    height: int | Mapping[str, int] = 300,
    **body: Any,
) -> dict[str, Any]:
    """Assemble a complete single-view (or layered) spec around *body*.

    A ``{"step": n}`` width or height sizes a discrete axis per band.
    """
    spec: dict[str, Any] = {
        "$schema": VL_SCHEMA,
        "title": title,
        "width": width,
        "height": height,
        "config": vl_config(),
    }
    spec.update(body)
    return spec


def series_rows(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    x_field: str = "x",
    y_field: str = "value",
    series_field: str = "series",
) -> list[dict[str, Any]]:
    """Long-form rows ``{x, value, series}`` for multi-series encodings."""
    rows: list[dict[str, Any]] = []
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValidationError(
                f"series {name!r} has {len(ys)} values for {len(x)} x points"
            )
        for xi, yi in zip(x, ys):
            rows.append({x_field: xi, y_field: yi, series_field: name})
    return rows


def _color_encoding(names: Sequence[str], *, legend_title: str) -> dict[str, Any]:
    """Fixed-order categorical color; legend only when ≥ 2 series."""
    enc: dict[str, Any] = {
        "field": "series",
        "type": "nominal",
        "scale": {
            "domain": list(names),
            "range": list(CATEGORICAL[: len(names)]),
        },
    }
    enc["legend"] = {"title": legend_title} if len(names) >= 2 else None
    return enc


def vl_line_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    x_log: bool = False,
    y_log: bool = False,
    legend_title: str = "series",
    width: int = 560,
    height: int = 300,
) -> dict[str, Any]:
    """A multi-series line chart (2 px lines, fixed hue order)."""
    names = list(series)
    if not names:
        raise ValidationError("line chart needs at least one series")
    x_scale = {"type": "log"} if x_log else {}
    y_scale = {"type": "log"} if y_log else {"zero": False}
    return vl_spec(
        title=title,
        width=width,
        height=height,
        data={"values": series_rows(x, series)},
        mark={"type": "line", "strokeWidth": 2, "point": {"size": 30}},
        encoding={
            "x": {
                "field": "x", "type": "quantitative", "title": xlabel,
                **({"scale": x_scale} if x_scale else {}),
            },
            "y": {
                "field": "value", "type": "quantitative", "title": ylabel,
                "scale": y_scale,
            },
            "color": _color_encoding(names, legend_title=legend_title),
        },
    )


def vl_density_chart(
    curves: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str = "density",
    annotations: Sequence[tuple[str, float]] = (),
    legend_title: str = "system",
    width: int = 560,
    height: int = 300,
) -> dict[str, Any]:
    """Overlaid density curves with optional vertical rule annotations.

    *curves* maps a series name to its precomputed ``(x, y)`` KDE grid —
    the chart never receives raw samples, so a million-point dataset
    costs 256 rows here.  *annotations* are ``(label, x)`` rules drawn in
    muted ink (they mark statistics, not series).
    """
    if not curves:
        raise ValidationError("density chart needs at least one curve")
    names = list(curves)
    rows: list[dict[str, Any]] = []
    for name, (cx, cy) in curves.items():
        if len(cx) != len(cy):
            raise ValidationError(f"curve {name!r}: x and y lengths differ")
        for xi, yi in zip(cx, cy):
            rows.append({"x": xi, "value": yi, "series": name})
    layers: list[dict[str, Any]] = [
        {
            "data": {"values": rows},
            "mark": {"type": "line", "strokeWidth": 2},
            "encoding": {
                "x": {"field": "x", "type": "quantitative", "title": xlabel},
                "y": {
                    "field": "value", "type": "quantitative", "title": ylabel,
                },
                "color": _color_encoding(names, legend_title=legend_title),
            },
        }
    ]
    if annotations:
        ann_rows = [{"label": lab, "x": xv} for lab, xv in annotations]
        layers.append(
            {
                "data": {"values": ann_rows},
                "mark": {"type": "rule", "strokeDash": [4, 3], "color": INK_MUTED},
                "encoding": {"x": {"field": "x", "type": "quantitative"}},
            }
        )
        layers.append(
            {
                "data": {"values": ann_rows},
                "mark": {
                    "type": "text", "angle": 270, "dx": 0, "dy": -6,
                    "align": "left", "baseline": "bottom", "color": INK_SECONDARY,
                    "fontSize": 10,
                },
                "encoding": {
                    "x": {"field": "x", "type": "quantitative"},
                    "y": {"value": 6},
                    "text": {"field": "label"},
                },
            }
        )
    return vl_spec(title=title, width=width, height=height, layer=layers)


def vl_qq_chart(
    panels: Sequence[Mapping[str, Any]],
    *,
    title: str,
    width: int = 240,
    height: int = 240,
) -> dict[str, Any]:
    """Faceted Q-Q scatter: one panel per normalization variant.

    Each panel dict needs ``name``, ``theoretical`` and ``sample``
    sequences (already thinned upstream).  An identity line per panel
    shows where a normal sample would sit.
    """
    if not panels:
        raise ValidationError("qq chart needs at least one panel")
    rows: list[dict[str, Any]] = []
    for panel in panels:
        name = panel["name"]
        theo, samp = panel["theoretical"], panel["sample"]
        if len(theo) != len(samp):
            raise ValidationError(f"panel {name!r}: point counts differ")
        lo = min(min(theo), min(samp)) if len(theo) else 0.0
        hi = max(max(theo), max(samp)) if len(theo) else 1.0
        for t, s in zip(theo, samp):
            rows.append({"panel": name, "theoretical": t, "sample": s,
                         "kind": "points"})
        rows.append({"panel": name, "theoretical": lo, "sample": lo,
                     "kind": "identity"})
        rows.append({"panel": name, "theoretical": hi, "sample": hi,
                     "kind": "identity"})
    return vl_spec(
        title=title,
        width=width,
        height=height,
        data={"values": rows},
        facet={"field": "panel", "type": "nominal", "columns": 2,
               "title": None},
        spec={
            "width": width,
            "height": height,
            "layer": [
                {
                    "transform": [{"filter": "datum.kind == 'points'"}],
                    "mark": {"type": "point", "size": 12, "filled": True,
                             "color": CATEGORICAL[0], "opacity": 0.7},
                    "encoding": {
                        "x": {"field": "theoretical", "type": "quantitative",
                              "title": "theoretical quantile"},
                        "y": {"field": "sample", "type": "quantitative",
                              "title": "sample quantile",
                              "scale": {"zero": False}},
                    },
                },
                {
                    "transform": [{"filter": "datum.kind == 'identity'"}],
                    "mark": {"type": "line", "strokeWidth": 1,
                             "strokeDash": [4, 3], "color": INK_MUTED},
                    "encoding": {
                        "x": {"field": "theoretical", "type": "quantitative"},
                        "y": {"field": "sample", "type": "quantitative"},
                    },
                },
            ],
        },
    )


def vl_band_line_chart(
    rows: Sequence[Mapping[str, Any]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    x_log: bool = False,
    series_names: Sequence[str] = (),
    legend_title: str = "series",
    width: int = 560,
    height: int = 300,
) -> dict[str, Any]:
    """Median line inside a shaded low–high band, optionally per series.

    Each row needs ``x``, ``mid``, ``low``, ``high`` and (when
    *series_names* is given) ``series``.  The canonical quartile-band
    scaling chart: the band carries spread so the line can stay thin.
    """
    if not rows:
        raise ValidationError("band chart needs at least one row")
    names = list(series_names) or ["measured"]
    multi = len(names) >= 2
    x_enc: dict[str, Any] = {
        "field": "x", "type": "quantitative", "title": xlabel,
    }
    if x_log:
        x_enc["scale"] = {"type": "log"}
    color = _color_encoding(names, legend_title=legend_title)
    band_color = dict(color)
    band_color["legend"] = None  # one legend (the line layer) per chart
    values = list(rows)
    if not multi:
        values = [{**r, "series": names[0]} for r in values]
    return vl_spec(
        title=title,
        width=width,
        height=height,
        layer=[
            {
                "data": {"values": values},
                "mark": {"type": "area", "opacity": 0.18},
                "encoding": {
                    "x": x_enc,
                    "y": {"field": "low", "type": "quantitative",
                          "title": ylabel, "scale": {"zero": False}},
                    "y2": {"field": "high"},
                    "color": band_color,
                },
            },
            {
                "data": {"values": values},
                "mark": {"type": "line", "strokeWidth": 2,
                         "point": {"size": 24}},
                "encoding": {
                    "x": x_enc,
                    "y": {"field": "mid", "type": "quantitative",
                          "title": ylabel, "scale": {"zero": False}},
                    "color": color,
                },
            },
        ],
    )


def vl_box_chart(
    boxes: Sequence[Mapping[str, Any]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = 640,
    height: int = 280,
) -> dict[str, Any]:
    """Box plots from precomputed stats (never from raw samples).

    Each box dict needs ``x``, ``q1``, ``median``, ``q3``, ``lo``, ``hi``
    (whisker ends).  Composed as rule (whiskers) + bar (IQR) + tick
    (median), so a 64-rank figure ships 64 rows, not 64 000 samples.
    """
    if not boxes:
        raise ValidationError("box chart needs at least one box")
    values = list(boxes)
    x_enc = {"field": "x", "type": "ordinal", "title": xlabel,
             "axis": {"labelAngle": 0}}
    return vl_spec(
        title=title,
        width=width,
        height=height,
        layer=[
            {
                "data": {"values": values},
                "mark": {"type": "rule", "color": INK_MUTED},
                "encoding": {
                    "x": x_enc,
                    "y": {"field": "lo", "type": "quantitative",
                          "title": ylabel, "scale": {"zero": False}},
                    "y2": {"field": "hi"},
                },
            },
            {
                "data": {"values": values},
                "mark": {"type": "bar", "size": 7, "color": CATEGORICAL[0],
                         "opacity": 0.85},
                "encoding": {
                    "x": x_enc,
                    "y": {"field": "q1", "type": "quantitative",
                          "title": ylabel},
                    "y2": {"field": "q3"},
                },
            },
            {
                "data": {"values": values},
                "mark": {"type": "tick", "color": INK, "thickness": 2,
                         "size": 9},
                "encoding": {
                    "x": x_enc,
                    "y": {"field": "median", "type": "quantitative"},
                },
            },
        ],
    )


def vl_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
    *,
    title: str,
) -> dict[str, Any]:
    """A table of text cells: one text mark per cell on a column × row grid.

    *rows* hold the cells as printed; columns keep their given order,
    with the labels on top.  Long-form values (one per cell) need no
    fold transform, so the spec is the table's data and nothing more.
    """
    for row in rows:
        if len(row) != len(columns):
            raise ValidationError(
                f"row width {len(row)} does not match {len(columns)} columns"
            )
    values = [
        {"row": i, "column": col, "text": cell}
        for i, row in enumerate(rows)
        for col, cell in zip(columns, row)
    ]
    return vl_spec(
        title=title,
        width={"step": 150},
        height={"step": 22},
        data={"values": values},
        mark={"type": "text", "align": "left", "color": INK},
        encoding={
            "x": {"field": "column", "type": "ordinal", "sort": list(columns),
                  "title": None,
                  "axis": {"orient": "top", "labelAngle": 0, "domain": False,
                           "ticks": False, "labelColor": INK}},
            "y": {"field": "row", "type": "ordinal", "axis": None},
            "text": {"field": "text", "type": "nominal"},
        },
    )


def vl_to_json(spec: Mapping[str, Any], *, indent: int | None = None) -> str:
    """Serialize a spec as strict JSON (numpy-safe, no NaN/Infinity).

    Non-finite floats become ``null`` per the export-layer policy; an
    unhandled non-finite value fails loudly rather than emitting tokens
    Vega-Lite and ``JSON.parse`` reject.
    """
    if "$schema" not in spec:
        raise ValidationError("not a Vega-Lite spec: missing $schema")
    return json.dumps(_deep_jsonable(dict(spec)), indent=indent,
                      allow_nan=False)


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title}</title>
<script src="https://cdn.jsdelivr.net/npm/vega@5"></script>
<script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>
<script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>
<style>
  body {{
    margin: 0; padding: 24px;
    background: #f9f9f7; color: {ink};
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  }}
  #vis {{
    background: {surface}; padding: 16px; border-radius: 6px;
    border: 1px solid rgba(11, 11, 11, 0.10); display: inline-block;
  }}
  pre {{ font-size: 11px; color: {ink_secondary}; overflow-x: auto; }}
</style>
</head>
<body>
<div id="vis"></div>
<script id="spec" type="application/json">
{spec_json}
</script>
<script>
  const spec = JSON.parse(document.getElementById("spec").textContent);
  if (typeof vegaEmbed !== "undefined") {{
    vegaEmbed("#vis", spec, {{actions: false}});
  }} else {{
    const pre = document.createElement("pre");
    pre.textContent = JSON.stringify(spec, null, 2);
    document.getElementById("vis").appendChild(pre);
  }}
</script>
<noscript><pre>{spec_escaped}</pre></noscript>
</body>
</html>
"""


def vl_html(spec: Mapping[str, Any], *, title: str | None = None) -> str:
    """A standalone HTML page rendering *spec*.

    The vega runtime loads from a CDN; without it (offline, noscript) the
    page degrades to showing the spec JSON, so the artifact is never
    blank.  The embedded JSON is the strict serialization, making the
    HTML bytes a pure function of the spec.
    """
    spec_json = vl_to_json(spec, indent=2)
    page_title = title or str(spec.get("title", "figure"))
    escaped = (
        spec_json.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return _HTML_TEMPLATE.format(
        title=page_title.replace("<", "&lt;"),
        spec_json=spec_json.replace("</", "<\\/"),
        spec_escaped=escaped,
        surface=SURFACE,
        ink=INK,
        ink_secondary=INK_SECONDARY,
    )

"""CSV tables and self-contained SVG log-log plots for error reports.

:func:`csv_text` formats every CSV table the package writes and holds the one
field rule.  Plots are written as data-complete SVG text so figures stay
diff-able and the package needs no plotting dependency at runtime.
"""

from __future__ import annotations

import math
from typing import Iterable, TextIO

from .experiments import ErrorPoint, ErrorReport

_HEADER = "resolution,rms_error,mc_std_error,samples"


def _field(value) -> str:
    """A float (numpy's float64 too) to 8 significant digits, anything else by str."""
    return f"{value:.8g}" if isinstance(value, float) else str(value)


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    """`header`, then one comma-joined line of fields per row; every line ends with LF."""
    return "\n".join([header, *(",".join(map(_field, row)) for row in rows)]) + "\n"


def format_csv(report: ErrorReport) -> str:
    rows = ((p.resolution, p.rms_error, p.mc_std_error, report.samples) for p in report.points)
    return csv_text(_HEADER, rows) + f"# fitted_slope={_field(report.fitted_slope)}\n"


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, with LF line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_csv(report: ErrorReport, path: str) -> None:
    """Write the error table; one row per resolution plus a slope footer."""
    write_text(path, format_csv(report))


def load_error_csv(path: str) -> tuple[list[ErrorPoint], int, float]:
    """Parse a file written by :func:`emit_csv`; returns (points, samples, slope).

    Blank lines and ``#`` lines of other keys are skipped.  A row that is not
    four numbers, a missing slope footer or mixed sample counts raise ValueError."""
    points: list[ErrorPoint] = []
    counts: set[int] = set()
    slope = None
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _HEADER:
            raise ValueError(f"{path}: unrecognized header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            try:
                if line.startswith("#"):
                    key, _, value = line.lstrip("# ").partition("=")
                    if key == "fitted_slope":
                        slope = float(value)
                elif line:
                    res, rms, se, n = line.split(",")
                    points.append(ErrorPoint(int(res), float(rms), float(se)))
                    counts.add(int(n))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected four numbers ({_HEADER}),"
                                 f" got {line!r}") from None
    if slope is None:
        raise ValueError(f"{path}: no '# fitted_slope=' footer")
    if len(counts) > 1:
        raise ValueError(f"{path}: rows of different sample counts {sorted(counts)}")
    return points, counts.pop() if counts else 0, slope


def _svg_text(report: ErrorReport) -> str:
    width, height = 560.0, 420.0
    ml, mr, mt, mb = 70.0, 24.0, 24.0, 52.0

    xs = [math.log2(p.resolution) for p in report.points]
    ys = [math.log2(p.rms_error) for p in report.points]
    x_lo, x_hi = min(xs) - 0.5, max(xs) + 0.5
    y_span = max(ys) - min(ys)
    pad = max(0.5, 0.1 * y_span)
    y_lo, y_hi = min(ys) - pad, max(ys) + pad

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    # Each mark once, as (line, style, legend label); a line is its (slope,
    # rise above the centroid) in log2 units.  fitted_slope is measured against
    # log2(1/resolution), so the fit drawn against log2(resolution) falls with
    # slope -fitted_slope.
    marks = [
        (None, 'r="4" fill="#1f77b4"', "measured error"),
        ((report.fitted_slope, 0.0), 'stroke="#d62728" stroke-width="1.5"',
         f"fit: slope {report.fitted_slope:.3f}"),
        ((0.5, 0.45), 'stroke="#7f7f7f" stroke-width="1.2" stroke-dasharray="6 4"',
         "slope 1/2 guide"),
    ]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]

    # Axis frame with tick marks, all in one path.
    axis = [f"M {ml:.2f} {mt:.2f} L {ml:.2f} {height - mb:.2f} "
            f"L {width - mr:.2f} {height - mb:.2f}"]
    labels = []
    for k in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        px = sx(k)
        axis.append(f"M {px:.2f} {height - mb:.2f} l 0 5")
        labels.append(
            f'<text x="{px:.2f}" y="{height - mb + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{2 ** k}</text>'
        )
    for k in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        py = sy(k)
        axis.append(f"M {ml:.2f} {py:.2f} l -5 0")
        labels.append(
            f'<text x="{ml - 9:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">2^{k}</text>'
        )
    parts.append(
        f'<path d="{" ".join(axis)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.extend(labels)
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10:.2f}" font-size="12" '
        f'text-anchor="middle">resolution</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2:.2f})">'
        "rms error</text>"
    )

    (_, point, _), *lines = marks
    for (slope, rise), style, _ in lines:
        ends = " ".join(f"{sx(x):.2f},{sy(y_mean + rise - slope * (x - x_mean)):.2f}"
                        for x in (x_lo, x_hi))
        parts.append(f'<polyline points="{ends}" fill="none" {style}/>')
    parts.extend(f'<circle class="pt" cx="{sx(x):.2f}" cy="{sy(y):.2f}" {point}/>'
                 for x, y in zip(xs, ys))

    # One legend entry per mark, 18 px apart; each swatch sits 4 px above its text.
    lx, ly = width - mr - 190, mt + 14
    for i, (line, style, label) in enumerate(marks):
        y = ly + 18 * i
        swatch = (f'<circle cx="{lx:.2f}" cy="{y - 4:.2f}" {style}/>' if line is None else
                  f'<line x1="{lx - 6:.2f}" y1="{y - 4:.2f}" x2="{lx + 6:.2f}" y2="{y - 4:.2f}" '
                  f'{style}/>')
        parts.append(f'{swatch}<text x="{lx + 10:.2f}" y="{y:.2f}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_loglog_plot(report: ErrorReport, path: str) -> None:
    """Write a standalone log2-log2 SVG.  Each point is at (log2 resolution,
    log2 rms_error), the resolution being N or M as the mode says; the
    least-squares fit passes through the points' centroid with slope
    -fitted_slope, and the guide falls with slope 1/2, 0.45 above the centroid."""
    write_text(path, _svg_text(report))


def print_report(report: ErrorReport, stream: TextIO) -> None:
    stream.write(
        f"strong-error study: mode={report.mode} ref={report.ref_resolution} "
        f"samples={report.samples}\n"
    )
    stream.write(f"{'resolution':>10}  {'rms_error':>12}  {'mc_std_error':>12}\n")
    for p in report.points:
        stream.write(
            f"{p.resolution:>10}  {p.rms_error:>12.6g}  {p.mc_std_error:>12.6g}\n"
        )
    stream.write(
        f"fitted slope: {report.fitted_slope:.4f} "
        f"(rms residual {report.fit_residual:.4f})\n"
    )

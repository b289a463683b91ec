"""Plain-text rendering of experiment results (tables, series, aggregates).

Every figure regenerator prints "the same rows/series the paper reports"
through these helpers, so benchmark output is directly comparable to the
paper's plots.  Multi-seed sweeps (``repro.harness.sweep``) render their
mean / stddev / min-max aggregates through :func:`format_aggregate`.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = [
    "format_table",
    "print_table",
    "print_points",
    "format_series",
    "print_series",
    "format_aggregate",
    "print_aggregate",
]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> None:
    """Print an aligned ASCII table."""
    print(format_table(headers, rows, title))
    print()


def print_points(
    columns: Sequence[tuple[str, Any]], points: Sequence[object], title: str | None = None
) -> None:
    """Print one table row per point from a declarative column table.

    ``columns`` is a sequence of ``(header, getter)`` rows: ``getter`` is
    an attribute name of the point, or a callable taking the point.  A
    ``None`` cell (e.g. a target never reached) renders as ``n/a``.
    """

    def cell(point: object, get: Any) -> object:
        value = get(point) if callable(get) else getattr(point, get)
        return "n/a" if value is None else value

    print_table(
        [header for header, _ in columns],
        [[cell(p, get) for _, get in columns] for p in points],
        title,
    )


def _sample(values: Sequence, width: int) -> list:
    """Downsample to at most ``width`` points spanning the whole series.

    Evenly spaced indices that always include both endpoints, so the
    rendered sparkline reaches the series' first and last values (a
    stride-based cut can silently drop the tail).
    """
    values = list(values)
    n = len(values)
    if n <= width:
        return values
    if width <= 1:
        return values[:1]
    return [values[round(i * (n - 1) / (width - 1))] for i in range(width)]


def _sparkline(values: Sequence[float | None], lo: float, hi: float) -> str:
    """Map values onto block marks; ``None`` renders as a ``·`` gap."""
    marks = "▁▂▃▄▅▆▇█"
    span = (hi - lo) or 1.0
    return "".join(
        "·" if v is None else marks[int((v - lo) / span * (len(marks) - 1))]
        for v in values
    )


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], width: int = 48
) -> str:
    """Render a series as a crude ASCII sparkline plus min/max labels."""
    if not len(xs):
        return f"{name}: (empty)"
    lo, hi = min(ys), max(ys)
    line = _sparkline(_sample(ys, width), lo, hi)
    return f"{name} [{lo:.4g}..{hi:.4g}]: {line}"


def print_series(
    name: str, xs: Sequence[float], ys: Sequence[float], width: int = 48
) -> None:
    """Print a series as an ASCII sparkline."""
    print(format_series(name, xs, ys, width))


def _is_stat(node: Any, kind: str) -> bool:
    return isinstance(node, dict) and node.get("kind") == kind


def _flatten_aggregate(
    node: Any, path: str, scalars: list, series: list
) -> None:
    """Walk an aggregate tree collecting scalar-stat rows and band series."""
    if _is_stat(node, "scalar"):
        scalars.append([path or "value", node["mean"], node["std"],
                        node["min"], node["max"], node["n"]])
        return
    if _is_stat(node, "series"):
        series.append((path or "series", node))
        return
    if _is_stat(node, "ragged"):
        length = node["length"]
        scalars.append([f"{path}.len", length["mean"], length["std"],
                        length["min"], length["max"], length["n"]])
        per_seed = node.get("per_seed_mean")
        if per_seed:
            scalars.append([f"{path}.seed-mean", per_seed["mean"], per_seed["std"],
                            per_seed["min"], per_seed["max"], per_seed["n"]])
        return
    if _is_stat(node, "const"):
        return
    if isinstance(node, dict):
        for k, v in node.items():
            _flatten_aggregate(v, f"{path}.{k}" if path else str(k), scalars, series)
        return
    if isinstance(node, list):
        for i, v in enumerate(node):
            _flatten_aggregate(v, f"{path}[{i}]", scalars, series)


def format_aggregate(aggregate: Any, title: str | None = None) -> str:
    """Render a multi-seed aggregate tree (see ``sweep.aggregate_payloads``).

    Scalar fields become one table row each (mean ± std, min–max band, n
    seeds); equal-length series become a sparkline of the seed-mean with
    the average band width noted alongside.
    """
    scalars: list = []
    series: list = []
    _flatten_aggregate(aggregate, "", scalars, series)
    blocks = []
    if scalars:
        blocks.append(format_table(
            ["field", "mean", "std", "min", "max", "n"], scalars, title=title))
    elif title:
        blocks.append(title)
    for path, node in series:
        blocks.append(_format_band_series(path, node["mean"], node["std"]))
    return "\n".join(blocks)


def _format_band_series(
    path: str, means: Sequence[float | None], stds: Sequence[float | None],
    width: int = 48,
) -> str:
    """Sparkline of a seed-mean series; all-missing columns render as gaps.

    Positions are preserved (a ``·`` marks a column with no data in any
    seed) so each mark still lines up with its operating point, and the
    quoted band averages only the stds of plotted columns.
    """
    # The band is averaged over exactly the columns the sparkline plots,
    # so the quoted ± always describes the rendered marks.
    sampled = _sample(list(zip(means, stds)), width)
    present = [m for m, _ in sampled if m is not None]
    if not present:
        return f"{path}: (no numeric data)"
    lo, hi = min(present), max(present)
    line = _sparkline([m for m, _ in sampled], lo, hi)
    band_stds = [s for m, s in sampled if m is not None and s is not None]
    band = sum(band_stds) / len(band_stds) if band_stds else 0.0
    shown = "" if len(sampled) == len(means) else f", {len(sampled)}/{len(means)} cols"
    return (f"{path} [{lo:.4g}..{hi:.4g}]: {line}  "
            f"(seed-mean, avg band ±{_fmt(band)}{shown})")


def print_aggregate(aggregate: Any, title: str | None = None) -> None:
    """Print a multi-seed aggregate tree."""
    print(format_aggregate(aggregate, title))
    print()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)

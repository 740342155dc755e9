"""Deterministic report serialization (JSON and CSV)."""

import json

from .errors import BadParams


def _format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise BadParams("cannot serialize non-finite real")
    return f"{x:.17g}"


def _dump(obj, indent, out):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(inner + json.dumps(str(key)) + ": ")
            _dump(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _dump(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise BadParams(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj):
    """Deterministic JSON text with reals at 17 significant digits."""
    out = []
    _dump(obj, 0, out)
    out.append("\n")
    return "".join(out)


def result_label(result):
    """theorem_id with chain link / statement reading appended when present."""
    tid = result["theorem_id"]
    link = result.get("link", 0)
    label = f"{tid}#{link}" if link else tid
    reading = result.get("reading", "")
    return f"{label}({reading})" if reading else label


def _csv_real(x):
    """A report real for CSV; a row without evaluated trials has none."""
    return "" if x is None else _format_float(x)


def report_csv(report):
    """One row per checker aggregate."""
    lines = ["theorem_id,convention,trials,failures,min_slack,mean_slack,witness_digest"]
    for result in report.results:
        lines.append(",".join([
            result_label(result),
            result["convention"] or "",
            str(result["trials"]),
            str(result["failures"]),
            _csv_real(result["min_slack"]),
            _csv_real(result["mean_slack"]),
            result["witness"]["input_digest"] if result["witness"] else "",
        ]))
    return "\n".join(lines) + "\n"


def render(report, fmt):
    """A campaign report as JSON or CSV text."""
    if fmt == "json":
        return dumps_json(report.to_dict())
    if fmt == "csv":
        return report_csv(report)
    raise BadParams(f"unknown report format {fmt!r}")

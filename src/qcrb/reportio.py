"""Diff-stable JSON and CSV writers: floats carry 17 significant digits."""

import json

import numpy as np

from .errors import NonFinite


def fmt_float(x):
    x = float(x)
    if not np.isfinite(x):
        raise NonFinite(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _encode(obj, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append('%s%s: %s' % (pad_in, json.dumps(str(k)),
                                       _encode(v, level + 1)))
        return "{\n%s\n%s}" % (",\n".join(items), pad)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [_encode(v, level + 1) for v in obj]
        if all(v is None or isinstance(v, (int, float, np.integer, np.floating, str, bool))
               for v in obj):
            return "[%s]" % ", ".join(parts)
        return "[\n%s\n%s]" % (",\n".join(pad_in + p for p in parts), pad)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj):
    """JSON text indented by two spaces per level, newline included."""
    return _encode(obj, 0) + "\n"


def csv_row(row):
    """One CSV line of 17-significant-digit floats, newline included."""
    return ",".join(fmt_float(x) for x in row) + "\n"


def csv_rows(header, rows):
    """CSV text with 17-significant-digit floats."""
    return ",".join(header) + "\n" + "".join(csv_row(row) for row in rows)

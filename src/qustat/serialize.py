"""JSON encoding for matrices, deterministic numeric output, and output files.

Matrices travel as {"dim": n, "re": [[...]], "im": [[...]]}.  All floats
written by the command line tools are printed as format_float prints
them (dump_json formats a list of finite floats in one pass), with 17
significant digits so outputs are byte-stable and round-trip exactly.
dump_json and dump_csv give the text of a result document and a table;
replace_file writes each output as a new file with os.open (O_EXCL) and
os.write, below Python's buffered file objects, so a re-run never
truncates the previous run's file in place (a hard link or symlink to it
keeps the old bytes) and nothing is fsynced.  remove_other_files
unlinks the tables an earlier run left that this run does not write.
"""

import math
import os
import re

import numpy as np

from .errors import ValidationError


def matrix_to_json(matrix):
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("only square matrices are serialized")
    return {
        "dim": int(m.shape[0]),
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise ValidationError("matrix JSON must be an object")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("malformed matrix JSON: %s" % exc) from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            "matrix JSON shape mismatch: dim=%d, re%r, im%r" % (dim, re.shape, im.shape)
        )
    return re + 1j * im


def format_float(x):
    """17 significant digits; enough to round-trip any double exactly."""
    x = float(x)
    if x == 0.0:
        return "0"  # -0.0 too
    if not math.isfinite(x):
        raise ValidationError("non-finite value in output: %r" % x)
    return "%.17g" % x


def dump_json(obj, indent=0):
    """Deterministic JSON text: sorted keys, fixed float format, LF newline.

    With indent > 0 every item of an object or array starts a new line,
    indented by `indent` spaces a level; with indent=0 the text is one
    line.
    """
    layouts = []  # layouts[level]: (opening break, item separator, closing break)

    def layout(level):
        while len(layouts) <= level:
            depth = len(layouts)
            if indent:
                inner = "\n" + " " * (indent * (depth + 1))
                layouts.append((inner, "," + inner, "\n" + " " * (indent * depth)))
            else:
                layouts.append(("", ",", ""))
        return layouts[level]

    keys = {}  # key -> its escaped text and ": "

    def encode(obj, level):
        # the common types first; None, bools, numpy scalars and subclasses last
        kind = type(obj)
        if kind is float:
            return format_float(obj)
        if kind is int:
            return str(obj)
        if isinstance(obj, str):
            return _escape(obj)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = []
            for key in sorted(obj):
                prefix = keys.get(key)
                if prefix is None:
                    if not isinstance(key, str):
                        raise ValidationError("JSON object keys must be strings")
                    prefix = keys[key] = _escape(key) + ": "
                value = obj[key]
                items.append(prefix + (format_float(value) if type(value) is float
                                       else encode(value, level + 1)))
            lead, sep, tail = layout(level)
            return "{" + lead + sep.join(items) + tail + "}"
        if isinstance(obj, (list, tuple)):
            if not len(obj):
                return "[]"
            if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
                items = ["%.17g" % x if x else "0" for x in obj]  # format_float of each
            else:
                items = [encode(item, level + 1) for item in obj]
            lead, sep, tail = layout(level)
            return "[" + lead + sep.join(items) + tail + "]"
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return format_float(obj)
        raise ValidationError("cannot serialize %r" % type(obj))

    return encode(obj, 0) + "\n"


_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(c): "\\u%04x" % c for c in range(0x20)}}
)


def _escape(s):
    if _NEEDS_ESCAPE.search(s) is None:
        return '"' + s + '"'
    return '"' + s.translate(_ESCAPES) + '"'


def dump_csv(header, rows):
    """CSV text: the header line, then each row's cells in header order, LF newlines.

    A cell is true/false for a bool, the digits of an int, nan for None
    or NaN, and format_float of anything else.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_csv_cell(row[col]) for col in header]))
    lines.append("")
    return "\n".join(lines)


def _csv_cell(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, int):
        return str(val)
    if val is None:
        return "nan"
    fval = float(val)
    return "nan" if fval != fval else format_float(fval)


def replace_file(path, text):
    """Write text as UTF-8 to a new file at path.

    A file already at path is unlinked first, never truncated in place.
    On ext4 (with its default auto_da_alloc) truncating a file that holds
    data starts its writeback at close, and the next truncation waits for
    it; a new file has no such wait.  A hard link or symlink to the old
    file keeps the old bytes.  os.write is called until every byte is written.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def remove_other_files(directory, suffix, keep):
    """Unlink every file in directory whose name ends with suffix and is not in keep.

    Files with other names and subdirectories are left alone.
    """
    keep = set(keep)
    with os.scandir(directory) as entries:
        for entry in entries:
            if (entry.name.endswith(suffix) and entry.name not in keep
                    and not entry.is_dir(follow_symlinks=False)):
                os.unlink(entry.path)

"""The per-line word-vector reader that ``load_word_vectors`` replaced, kept as a test oracle.

Each row is converted by its own ``np.array(values)``, that is by Python's
float(). It differs from numpy's text parser only on values outside the
format's grammar: float() also takes ``_`` digit separators and non-ASCII
digits, and numpy also takes the ASCII separators U+001C-U+001F as space
around a value.
"""

import logging

import numpy as np

from conceptbag.errors import DimensionMismatch, MalformedLine, numbered_lines

logger = logging.getLogger(__name__)


def reference_load_word_vectors(path):
    """(words, matrix) of ``path``, or the same exception, line included, as the library reader."""
    words: dict[str, int] = {}
    rows: list[np.ndarray] = []
    row_lines: list[int] = []  # the line each row was last read from
    count = dim = None
    read = 0
    with numbered_lines(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            parts = [p for p in line.rstrip("\r\n").split(" ") if p]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                count, dim = int(parts[0]), int(parts[1])
                if dim == 0:
                    raise ValueError("the header gives 0 values per row")
                continue
            read += 1
            if count is not None and read > count:
                raise ValueError(f"row {read}, but the header gives {count} rows")
            word, values = parts[0], parts[1:]
            vec = np.array(values, dtype=np.float64)
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise ValueError(f"row {word!r} has no values")
            if len(vec) != dim:
                raise DimensionMismatch(
                    f"{path} line {lineno}: row has {len(vec)} values, expected {dim}"
                )
            if word in words:
                logger.warning("duplicate word %r at line %d; keeping last", word, lineno)
                rows[words[word]] = vec
                row_lines[words[word]] = lineno
            else:
                words[word] = len(rows)
                rows.append(vec)
                row_lines.append(lineno)
        if count is not None and read < count:
            raise ValueError(f"{read} rows, but the header gives {count}")
    matrix = np.vstack(rows) if rows else np.zeros((0, dim or 0))
    if not np.isfinite(matrix).all():
        first = min(row_lines[i] for i in np.flatnonzero(~np.isfinite(matrix).all(axis=1)))
        raise MalformedLine(f"{path} line {first}: row holds a NaN or infinite value")
    return words, matrix

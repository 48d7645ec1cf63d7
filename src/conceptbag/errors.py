"""Library exception types, the config checks and builder that raise them, and the line reader."""

import dataclasses
import math
import numbers
from collections.abc import Mapping
from contextlib import contextmanager


class ConceptBagError(Exception):
    """Base class for all library errors."""


class MissingDirectory(ConceptBagError):
    """A required dataset directory does not exist."""


class UnreadableFile(ConceptBagError):
    """A dataset file could not be read; the message names the file."""


class EmptyVocabulary(ConceptBagError):
    """No n-gram survived dictionary filtering."""


class UnknownDocument(ConceptBagError):
    """A document is not one an n-gram index was built over: its id is unknown, or its tokens differ."""


class BadOrders(ConceptBagError, ValueError):
    """N-gram orders are not a non-empty subset of {1, 2, 3}."""


class NGramKeyOverflow(ConceptBagError):
    """Too many distinct words for the n-gram's integer keys to fit in int64."""


class DimensionMismatch(ConceptBagError):
    """Vector or matrix dimensions are inconsistent."""


class MalformedLine(ConceptBagError):
    """A line of a word-vector file (a centroid file is one) is not UTF-8 or does not parse.

    Also such a file with 0 values per row, a row beyond or missing from its
    header's count, or one holding NaN or infinity. The message names the
    file and the line.
    """


class UnknownWord(ConceptBagError):
    """An n-gram word is absent from the word-vector dictionary."""

    def __init__(self, word, position=None):
        self.word = word
        self.position = position
        loc = f" at position {position}" if position is not None else ""
        super().__init__(f"word {word!r}{loc} has no vector")


class EmptyCorpus(ConceptBagError):
    """No token survived min-count filtering."""


class SgnsDiverged(ConceptBagError):
    """Skip-gram training diverged: a score overflowed exp, so the learning rate is too large."""


class TooFewPoints(ConceptBagError):
    """Fewer points than requested clusters."""


class BadLabel(ConceptBagError):
    """A class label is not +1 or -1."""


class SingleClass(ConceptBagError):
    """Training labels contain only one class."""


class LengthMismatch(ConceptBagError):
    """Two aligned sequences have different lengths."""


class NonFiniteFeature(ConceptBagError):
    """A feature matrix contains NaN or infinity."""


class RankRequestTooLarge(ConceptBagError):
    """Requested SVD rank exceeds min(rows, cols)."""


class TooFewDocuments(ConceptBagError):
    """Not enough documents to build the requested folds, or none to score."""


class BadConfig(ConceptBagError, ValueError):
    """A configuration value has the wrong type or is out of range."""


def check_int(what: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise BadConfig unless ``value`` is an int (not a bool) within the bounds given, inclusive."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (minimum is not None and value < minimum) or (maximum is not None and value > maximum)):
        bound = "" if minimum is None else f" >= {minimum}"
        if maximum is not None:
            bound = f" in [{minimum}, {maximum}]"
        raise BadConfig(f"{what} must be an int{bound}, got {value!r}")


def check_finite(what: str, value, minimum: float, strict: bool) -> None:
    """Raise BadConfig unless ``value`` is a finite real > ``minimum`` (>= if not ``strict``)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value)
            or (value <= minimum if strict else value < minimum)):
        bound = f"{'>' if strict else '>='} {minimum:g}"
        raise BadConfig(f"{what} must be a finite number {bound}, got {value!r}")


def config_from(cls, given: Mapping, what: str = "config"):
    """The config dataclass ``cls`` from ``given``, its field names to values; others keep defaults.

    A key that is not a field raises BadConfig naming it. A config-valued field
    (``ExperimentConfig.kmeans``, ``.svm``) is built the same way from a given
    mapping, and raises BadConfig if given anything else.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(given) - set(fields)
    if unknown:
        raise BadConfig(f"unknown {what} keys: {sorted(unknown)}")
    values = dict(given)
    for name, f in fields.items():
        if dataclasses.is_dataclass(f.default_factory):
            nested = values.get(name, {})
            if not isinstance(nested, Mapping):
                raise BadConfig(f'"{name}" must be a JSON object, got {type(nested).__name__}')
            values[name] = config_from(f.default_factory, nested, name)
    return cls(**values)


@contextmanager
def numbered_lines(path):
    """Yield an iterator over the lines of the file ``path``, each decoded as strict UTF-8.

    A ValueError in the ``with`` block, a byte that is not UTF-8 included, becomes
    MalformedLine naming the file and the line last read; past the end, that is
    the first missing line.
    """
    lineno = 0

    def lines(fh):
        nonlocal lineno
        for raw in fh:
            lineno += 1
            yield raw.decode("utf-8")
        lineno += 1

    with open(path, "rb") as fh:
        try:
            yield lines(fh)
        except ValueError as exc:
            raise MalformedLine(f"{path} line {lineno}: {exc}") from exc

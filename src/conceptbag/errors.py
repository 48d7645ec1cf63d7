"""Exception types raised across the library, and the config checks that raise BadConfig."""

import math
import numbers


class ConceptBagError(Exception):
    """Base class for all library errors."""


class MissingDirectory(ConceptBagError):
    """A required dataset directory does not exist."""


class UnreadableFile(ConceptBagError):
    """A dataset file could not be read; the message names the file."""


class EmptyVocabulary(ConceptBagError):
    """No n-gram survived dictionary filtering."""


class BadOrders(ConceptBagError, ValueError):
    """N-gram orders are not a non-empty subset of {1, 2, 3}."""


class NGramKeyOverflow(ConceptBagError):
    """Too many distinct words for the n-gram's integer keys to fit in int64."""


class DimensionMismatch(ConceptBagError):
    """Vector or matrix dimensions are inconsistent."""


class MalformedLine(ConceptBagError):
    """A line of a word-vector, SVM model or svmlight feature file could not be parsed.

    The message carries the line number; the model and feature loaders also name the file.
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


class BadCentroidFile(ConceptBagError, ValueError):
    """A centroid file has the wrong magic, version, shape or length; message names the file."""


class TooFewDocuments(ConceptBagError):
    """Not enough documents to build the requested folds."""


class BadConfig(ConceptBagError, ValueError):
    """A configuration value has the wrong type or is out of range."""


def check_int(what: str, value, minimum: int | None = None) -> None:
    """Raise BadConfig unless ``value`` is an int (not a bool), and >= ``minimum`` if given."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise BadConfig(f"{what} must be an int{bound}, got {value!r}")


def check_finite(what: str, value, minimum: float, strict: bool) -> None:
    """Raise BadConfig unless ``value`` is a finite real > ``minimum`` (>= if not ``strict``)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value)
            or (value <= minimum if strict else value < minimum)):
        bound = f"{'>' if strict else '>='} {minimum:g}"
        raise BadConfig(f"{what} must be a finite number {bound}, got {value!r}")

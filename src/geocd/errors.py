"""Exception types shared across the package."""


class GeoCdError(Exception):
    """Base class for library-specific errors."""


class DegenerateCloudError(GeoCdError):
    """All points coincide, or their box is too large, so no bounding-box scale exists."""


class EmptyFileError(GeoCdError):
    """The file contains no point records."""


class ParseError(GeoCdError):
    """A point-cloud file does not match its declared format.

    Carries the location of the first offending record: ``line`` for the
    text format, ``offset`` (in bytes) for the binary one.
    """

    def __init__(self, message, path=None, line=None, offset=None):
        loc = str(path) if path is not None else "<input>"
        if line is not None:
            loc += f":{line}"
        if offset is not None:
            loc += f" (byte {offset})"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line
        self.offset = offset


class KTooLargeError(GeoCdError):
    """Requested neighbour count exceeds the number of other points."""


class DimensionMismatchError(GeoCdError):
    """The adjacency fed to propagation does not match the merged set."""


class NormalizationError(GeoCdError):
    """A kNN edge is longer than the sentinel: the pair is not normalized."""

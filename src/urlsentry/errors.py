"""Exception types raised across the urlsentry pipeline."""


class UrlSentryError(Exception):
    """Base class for all urlsentry errors."""


class EmptyUrl(UrlSentryError):
    """Raised when a URL is empty or whitespace-only."""


class MissingColumn(UrlSentryError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"input CSV is missing required column {name!r}")


class MalformedRow(UrlSentryError):
    def __init__(self, line_no: int, detail: str = "wrong field count"):
        self.line_no = line_no
        super().__init__(f"malformed CSV row at line {line_no}: {detail}")


class UnknownLabel(UrlSentryError):
    def __init__(self, text: object, detail: str = "has no entry in the label mapping"):
        self.text = text
        super().__init__(f"{text!r} {detail}")


class DegenerateSplit(UrlSentryError):
    """Raised when a train/test split would leave a partition empty."""


class DimensionMismatch(UrlSentryError):
    """Raised when shapes disagree: an input's width is not the width it must have
    (a model's, an artifact's feature spec, a tree trainer's at least one column),
    or paired sequences differ in length."""


class SingleClassTrainingSet(UrlSentryError):
    """Raised when a supervised trainer is given only one class."""


class LatentTooLarge(UrlSentryError):
    """Raised when the requested latent width exceeds the input width."""


class KOutOfRange(UrlSentryError):
    """Raised when k is outside [1, number of stored rows]."""


class TooFewRows(UrlSentryError):
    """Raised when a split is requested on fewer than two rows."""


class EmptyInput(UrlSentryError):
    """Raised when a fit, an evaluation or an impurity is requested on zero rows."""


class UnsupportedVersion(UrlSentryError):
    def __init__(self, found: int, supported: int):
        self.found = found
        self.supported = supported
        super().__init__(
            f"artifact format_version {found} is newer than supported version {supported}"
        )


class MalformedModel(UrlSentryError):
    """Raised when a model is built from fields its class forbids (tree links that
    are not trees, no trees or layers, an unknown variant or activation)."""


class CorruptArtifact(UrlSentryError):
    """Raised when an artifact fails its checksum or structural checks."""


class ConfigError(UrlSentryError):
    """Raised for unknown or invalid configuration keys/values."""


class ThresholdOutOfRange(ConfigError):
    """Raised when a confidence threshold is outside [0, 1]."""


class UsageError(UrlSentryError):
    """Raised for a command line the CLI cannot parse."""

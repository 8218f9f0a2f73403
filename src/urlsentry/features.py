"""Lexical URL featurization.

Every feature is computed from the URL string alone (no DNS, no fetching),
so extraction is deterministic and total: any non-empty string produces a
vector. Malformed percent-encodings and other oddities are treated as
literal characters.

featurize_many makes one pass over a batch: each URL is split once by the
same helper parse_url uses, its values go straight into one flat float
buffer, and an ASCII URL counts its digits and special characters on its
bytes. extract_features is its one-row view.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyUrl

IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

SPECIAL_CHARS = "@?=&%_~"
_SPECIAL_BYTES = SPECIAL_CHARS.encode("ascii")
_ASCII_DIGITS = b"0123456789"

DEFAULT_KEYWORDS = ("login", "secure", "account", "verify", "bank", "free")

_BASE_FEATURES = (
    "url_length",
    "host_length",
    "path_length",
    "count_dots",
    "count_hyphens",
    "count_digits",
    "count_special",
    "digit_ratio",
    "path_depth",
    "num_subdomains",
    "has_https",
    "host_is_ip",
)


@dataclass(frozen=True)
class UrlParts:
    scheme: str
    host: str
    path: str
    query: str
    host_is_ip: bool


@dataclass(frozen=True)
class FeatureSpec:
    """Fixed feature catalog: base lexical features plus one flag per keyword.

    Keyword flags appear after the base features, in keyword order, so
    appending a keyword never disturbs existing columns.
    """

    keywords: tuple[str, ...] = DEFAULT_KEYWORDS

    def __post_init__(self):
        lowered = tuple(k.lower() for k in self.keywords)
        object.__setattr__(self, "keywords", lowered)
        names = feature_names(self)
        if len(set(names)) != len(names):
            raise ConfigError("feature names must be unique")

    @property
    def dim(self) -> int:
        return len(_BASE_FEATURES) + len(self.keywords)


def feature_names(spec: FeatureSpec) -> list[str]:
    """Return the exact column order produced by extract_features."""
    return list(_BASE_FEATURES) + [f"kw_{k}" for k in spec.keywords]


def _is_dotted_quad(host: str) -> bool:
    m = IP_RE.match(host)
    if not m:
        return False
    return all(0 <= int(octet) <= 255 for octet in m.groups())


def _split(raw: str) -> tuple[str, str, str, str, str]:
    """The stripped URL and its scheme, host, path and query.

    No "://" means the scheme is empty and parsing starts at the host.
    Scheme and host are lowercased; path and query keep their case.
    """
    s = raw.strip()
    if not s:
        raise EmptyUrl("URL is empty or whitespace-only")

    if "://" in s:
        scheme, rest = s.split("://", 1)
        scheme = scheme.lower()
    else:
        scheme, rest = "", s

    # Host runs until the first path or query delimiter.
    cut = len(rest)
    for ch in "/?":
        pos = rest.find(ch)
        if pos != -1:
            cut = min(cut, pos)
    host = rest[:cut].lower()
    remainder = rest[cut:]

    if remainder.startswith("?"):
        path, query = "", remainder[1:]
    elif "?" in remainder:
        path, query = remainder.split("?", 1)
    else:
        path, query = remainder, ""
    return s, scheme, host, path, query


def parse_url(raw: str) -> UrlParts:
    """Split a raw URL string into scheme/host/path/query (see _split)."""
    _, scheme, host, path, query = _split(raw)
    return UrlParts(scheme, host, path, query, host_is_ip=_is_dotted_quad(host))


def extract_features(raw: str, spec: FeatureSpec | None = None) -> np.ndarray:
    """Compute the lexical feature vector for one URL, in spec order.

    Pure function: identical (raw, spec) inputs always yield an identical
    float64 vector. A one-row featurize_many.
    """
    return featurize_many([raw], spec)[0]


def featurize_many(urls: list[str], spec: FeatureSpec | None = None) -> np.ndarray:
    """Feature vectors for a list of URLs as an n x d float64 matrix, in spec order.

    One pass over the URLs writes every value into one flat float buffer.
    """
    if spec is None:
        spec = FeatureSpec()
    keywords = spec.keywords
    values = array("d")
    for raw in urls:
        s, scheme, host, path, _ = _split(raw)
        lowered = s.lower()
        n = len(s)
        if s.isascii():  # one byte per character, and only 0-9 are digits
            b = s.encode("ascii")
            digits = n - len(b.translate(None, _ASCII_DIGITS))
            special = n - len(b.translate(None, _SPECIAL_BYTES))
        else:  # str.isdigit also counts digits such as "²" and "٣"
            digits = sum(c.isdigit() for c in s)
            special = sum(map(s.count, SPECIAL_CHARS))
        values.extend((
            n,
            len(host),
            len(path),
            s.count("."),
            s.count("-"),
            digits,
            special,
            digits / n,
            path.count("/"),
            max(host.count(".") - 1, 0),
            scheme == "https",
            _is_dotted_quad(host),
        ))
        values.extend([kw in lowered for kw in keywords])
    return np.frombuffer(values, dtype=np.float64).reshape(len(urls), spec.dim)

"""Lexical URL featurization.

Every feature is computed from the URL string alone (no DNS, no fetching),
so extraction is deterministic and total: any non-empty string produces a
vector. Malformed percent-encodings and other oddities are treated as
literal characters.

featurize_many takes blocks of up to _URL_BLOCK URLs, stripped and joined
into one buffer of code points. Four positions split each row: the first
"://" ends the scheme (none: an empty scheme), the host runs to the first "/"
or "?", the path to the next "?". A count is how many of a character class's
sorted positions lie in a range (searchsorted), so no code runs per URL.
Digits are 0-9 and the non-ASCII code points str.isdigit accepts. Scheme and
host are lowercased: no lowercase adds a ".", and U+0130 (İ) lowercases to
two code points, so each adds 1 to the host length. Keywords are found in the
lowercased block, inside one row; a block holding U+0130 or U+03A3 (Σ, whose
lowercase depends on its neighbours) is lowercased row by row. parse_url and
extract_features are one-row views.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyUrl

IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

SPECIAL_CHARS = "@?=&%_~"

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


# URLs featurized together; bounds the code point buffer and its class arrays.
_URL_BLOCK = 512

# The class of each ASCII code point (0 for none), and at index 128 the class
# of every other one. "?" is special and also ends a host or a path, so it has
# a class of its own.
_DOT, _HYPHEN, _DIGIT, _SPECIAL, _QUERY, _SLASH, _COLON, _NON_ASCII = range(1, 9)
_CLASS_OF = np.zeros(129, dtype=np.uint8)
for _chars, _class in ((".", _DOT), ("-", _HYPHEN), ("0123456789", _DIGIT),
                       (SPECIAL_CHARS.replace("?", ""), _SPECIAL), ("?", _QUERY), ("/", _SLASH),
                       (":", _COLON)):
    _CLASS_OF[list(_chars.encode("ascii"))] = _class
_CLASS_OF[128] = _NON_ASCII

# A scheme is "https" if its five code points OR 0x20 are these: only H and h
# map onto h (likewise t, p, s), and no non-ASCII code point lowercases to one.
_HTTPS = np.array([ord(c) for c in "https"], dtype=np.uint32)


def _code_points(text: str) -> np.ndarray:
    # a lone surrogate, as in a surrogate-escaped argument, is one code point too
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _first(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the first of the sorted positions pos in [lo, hi), or hi if none."""
    return np.minimum(np.append(pos, hi.max())[np.searchsorted(pos, lo)], hi)


def _count(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, how many of the sorted positions pos lie in [lo, hi)."""
    return np.searchsorted(pos, hi) - np.searchsorted(pos, lo)


def _joined(rows: list[str]) -> tuple[str, np.ndarray]:
    """The rows joined, and their bounds: row i is [bounds[i], bounds[i + 1])."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    return "".join(rows), np.concatenate(([0], np.cumsum(lengths)))


class _Block:
    """A block of URLs, stripped and joined into one code point buffer."""

    def __init__(self, urls: list[str]):
        self.rows = list(map(str.strip, urls))
        if not all(self.rows):
            raise EmptyUrl("URL is empty or whitespace-only")
        self.text, self.bounds = _joined(self.rows)
        self.cp = _code_points(self.text)
        self.starts, self.ends = self.bounds[:-1], self.bounds[1:]
        self.classes = _CLASS_OF.take(np.minimum(self.cp, 128))
        # at[c]: the sorted positions of class c
        self.at = {c: np.flatnonzero(self.classes == c) for c in range(1, _NON_ASCII + 1)}

    def split_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per row, the buffer positions (scheme end, host start, host end, path end)."""
        cp, starts, ends = self.cp, self.starts, self.ends
        colons = self.at[_COLON]
        colons = colons[colons + 2 < len(cp)]
        sep = colons[(cp[colons + 1] == ord("/")) & (cp[colons + 2] == ord("/"))]
        first = _first(sep, starts, ends - 2)  # the first "://" that ends in its row
        has_sep = first < ends - 2
        host_start = np.where(has_sep, first + 3, starts)
        host_end = np.minimum(_first(self.at[_SLASH], host_start, ends),
                              _first(self.at[_QUERY], host_start, ends))
        path_end = _first(self.at[_QUERY], host_end, ends)
        return np.where(has_sep, first, starts), host_start, host_end, path_end


def parse_url(raw: str) -> UrlParts:
    """Split a raw URL string into scheme/host/path/query; a one-row _Block.

    No "://" means the scheme is empty and parsing starts at the host.
    Scheme and host are lowercased; path and query keep their case.
    """
    block = _Block([raw])
    s = block.text
    scheme_end, host_start, host_end, path_end = (int(p[0]) for p in block.split_points())
    host = s[host_start:host_end].lower()
    return UrlParts(s[:scheme_end].lower(), host, s[host_end:path_end], s[path_end + 1:],
                    host_is_ip=_is_dotted_quad(host))


def extract_features(raw: str, spec: FeatureSpec | None = None) -> np.ndarray:
    """Compute the lexical feature vector for one URL, in spec order.

    Pure function: identical (raw, spec) inputs always yield an identical
    float64 vector. A one-row featurize_many.
    """
    return featurize_many([raw], spec)[0]


def featurize_many(urls: list[str], spec: FeatureSpec | None = None) -> np.ndarray:
    """Feature vectors for a list of URLs as an n x d float64 matrix, in spec order."""
    if spec is None:
        spec = FeatureSpec()
    out = np.empty((len(urls), spec.dim))
    for lo in range(0, len(urls), _URL_BLOCK):
        _featurize_block(_Block(urls[lo : lo + _URL_BLOCK]), spec.keywords,
                         out[lo : lo + _URL_BLOCK])
    return out


def _featurize_block(block: _Block, keywords: tuple[str, ...], out: np.ndarray) -> None:
    """Write the feature rows of one block into out, in spec order."""
    cp, at, starts, ends = block.cp, block.at, block.starts, block.ends
    scheme_end, host_start, host_end, path_end = block.split_points()
    wide = at[_NON_ASCII]
    wide_cp = cp[wide]
    distinct = set(wide_cp.tolist())
    wide_digits = [c for c in distinct if chr(c).isdigit()]
    digits = _count(at[_DIGIT], starts, ends)
    if wide_digits:
        digits += _count(wide[np.isin(wide_cp, wide_digits)], starts, ends)
    lengths = np.diff(block.bounds)
    host_dots = _count(at[_DOT], host_start, host_end)

    out[:, 0] = lengths
    out[:, 1] = host_end - host_start + _count(wide[wide_cp == 0x130], host_start, host_end)
    out[:, 2] = path_end - host_end
    out[:, 3] = _count(at[_DOT], starts, ends)
    out[:, 4] = _count(at[_HYPHEN], starts, ends)
    out[:, 5] = digits
    out[:, 6] = _count(at[_SPECIAL], starts, ends) + _count(at[_QUERY], starts, ends)
    out[:, 7] = digits / lengths
    out[:, 8] = _count(at[_SLASH], host_end, path_end)
    out[:, 9] = np.maximum(host_dots - 1, 0)

    five = np.flatnonzero(scheme_end - starts == 5)
    out[:, 10:12] = 0
    out[five, 10] = ((cp[starts[five, None] + np.arange(5)] | 0x20) == _HTTPS).all(axis=1)

    # A dotted quad has three dots and a digit first, and no ASCII non-digit
    # lowercases to a digit.
    first_class = np.append(block.classes, 0)[host_start]
    maybe_ip = np.flatnonzero((host_dots == 3)
                              & ((first_class == _DIGIT) | (first_class == _NON_ASCII)))
    out[maybe_ip, 11] = [_is_dotted_quad(block.text[a:b].lower())
                         for a, b in zip(host_start[maybe_ip].tolist(), host_end[maybe_ip].tolist())]

    # U+0130 lowercases to two code points and U+03A3 to a letter that depends
    # on its neighbours, so a block holding either is lowercased row by row.
    if 0x130 in distinct or 0x3A3 in distinct:
        low_text, low_bounds = _joined(list(map(str.lower, block.rows)))
    else:
        low_text, low_bounds = block.text.lower(), block.bounds
    low = _code_points(low_text)
    for j, keyword in enumerate(keywords, start=len(_BASE_FEATURES)):
        out[:, j] = _rows_holding(low, low_bounds, _code_points(keyword))


def _rows_holding(cp: np.ndarray, bounds: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Whether each row [bounds[i], bounds[i + 1]) of cp holds word."""
    m = len(word)
    if m == 0:
        return np.ones(len(bounds) - 1, dtype=bool)
    hits = np.flatnonzero(cp[: max(len(cp) - m + 1, 0)] == word[0])
    for j in range(1, m):
        hits = hits[cp[hits + j] == word[j]]
    row = np.searchsorted(bounds, hits, side="right") - 1
    found = np.zeros(len(bounds) - 1, dtype=bool)
    found[row[hits + m <= bounds[row + 1]]] = True
    return found

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urlsentry import features
from urlsentry.errors import ConfigError, EmptyUrl
from urlsentry.features import (
    SPECIAL_CHARS,
    FeatureSpec,
    UrlParts,
    _is_dotted_quad,
    extract_features,
    feature_names,
    featurize_many,
    parse_url,
)

from conftest import random_urls

SPEC = FeatureSpec()


def oracle_parse(raw: str):
    """The per-URL split featurize_many replaced: (scheme, host, path, query)."""
    s = raw.strip()
    if not s:
        raise EmptyUrl("URL is empty or whitespace-only")
    if "://" in s:
        scheme, rest = s.split("://", 1)
        scheme = scheme.lower()
    else:
        scheme, rest = "", s
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
    return scheme, host, path, query


def oracle_features(raw: str, spec: FeatureSpec) -> np.ndarray:
    """The per-URL extractor featurize_many replaced, one float64 vector per URL."""
    scheme, host, path, _ = oracle_parse(raw)
    s = raw.strip()
    lowered = s.lower()
    n = len(s)
    digits = sum(c.isdigit() for c in s)
    values = [
        float(n),
        float(len(host)),
        float(len(path)),
        float(s.count(".")),
        float(s.count("-")),
        float(digits),
        float(sum(s.count(c) for c in SPECIAL_CHARS)),
        digits / n,
        float(path.count("/")),
        float(max(host.count(".") - 1, 0)),
        1.0 if scheme == "https" else 0.0,
        1.0 if _is_dotted_quad(host) else 0.0,
    ]
    values.extend(1.0 if kw in lowered else 0.0 for kw in spec.keywords)
    return np.asarray(values, dtype=np.float64)


def oracle_matrix(urls, spec: FeatureSpec) -> np.ndarray:
    return np.stack([oracle_features(u, spec) for u in urls])


# URL pieces that stress the featurizer: Unicode digits ("²" is a digit but not
# a decimal, "٣" is both) and whitespace, upper-case schemes and hosts, "?"
# before "/", "://" inside a query, and dotted quads with an octet over 255.
URL_PIECES = [
    "http://", "HTTPS://", "https://", "Ftp://", "://", "?", "/", "?/", "/?", ".", "-",
    "@", "=", "&", "%", "_", "~", "1", "9", "0", "²", "٣", "\u00a0", "\u2003", "\u3000",
    " ", "\t", "\n", "EXAMPLE.COM", "Login", "BANK", "free", "x", "1.2.3.4", "256.1.1.1",
    "10.0.0.999", "255.255.255.255", "?u=http://evil.tk/login", "İ", "ß",
]
url_text = st.lists(st.sampled_from(URL_PIECES) | st.text(max_size=4), min_size=1,
                    max_size=12).map("".join).filter(lambda u: u.strip())

# Short URLs whose pieces straddle the rows of a joined block: a "://" split
# in two, a keyword or a dotted quad split across URLs, and code points whose
# lowercase is longer ("İ") or depends on its neighbours ("Σ" beside "α").
BOUNDARY_PIECES = ["http:", "//", ":", "log", "in", "1.2.3", ".4", "İ", "Σ", "α", "x"]
boundary_url = st.lists(st.sampled_from(BOUNDARY_PIECES) | st.sampled_from(URL_PIECES),
                        min_size=1, max_size=2).map("".join).filter(lambda u: u.strip())
BOUNDARY_SPEC = FeatureSpec(keywords=("login", "σ", "ς", "İ", "ss", ""))


def code_points_where(predicate) -> list[str]:
    return [c for c in map(chr, range(0x110000)) if predicate(c)]


def idx(name: str) -> int:
    return feature_names(SPEC).index(name)


class TestParseUrl:
    def test_ip_host_with_path(self):
        parts = parse_url("http://192.168.0.1/login")
        assert parts.scheme == "http"
        assert parts.host == "192.168.0.1"
        assert parts.path == "/login"
        assert parts.query == ""
        assert parts.host_is_ip is True

    def test_empty_raises(self):
        with pytest.raises(EmptyUrl):
            parse_url("")
        with pytest.raises(EmptyUrl):
            parse_url("   \t ")

    def test_missing_scheme_starts_at_host(self):
        parts = parse_url("example.com")
        assert parts.scheme == ""
        assert parts.host == "example.com"
        assert parts.path == ""
        assert parts.query == ""
        assert parts.host_is_ip is False

    def test_scheme_and_host_lowercased_path_preserved(self):
        parts = parse_url("HTTPS://Example.COM/CaseSensitive?Q=Abc")
        assert parts.scheme == "https"
        assert parts.host == "example.com"
        assert parts.path == "/CaseSensitive"
        assert parts.query == "Q=Abc"

    def test_query_without_path(self):
        parts = parse_url("http://a.com?x=1")
        assert parts.path == ""
        assert parts.query == "x=1"

    @pytest.mark.parametrize(
        "host,is_ip",
        [
            ("1.2.3.4", True),
            ("0.0.0.0", True),
            ("255.255.255.255", True),
            ("256.1.1.1", False),
            ("999.1.1.1", False),
            ("1.2.3", False),
            ("1.2.3.4.5", False),
            ("a.b.c.d", False),
        ],
    )
    def test_dotted_quad_detection(self, host, is_ip):
        assert parse_url(f"http://{host}/").host_is_ip is is_ip

    @settings(max_examples=300, deadline=None)
    @given(url_text)
    def test_matches_oracle_parse(self, url):
        scheme, host, path, query = oracle_parse(url)
        assert parse_url(url) == UrlParts(scheme, host, path, query, _is_dotted_quad(host))

    def test_segments_preserve_characters(self):
        # host+path+query keep all their characters (compared casefolded,
        # since host is lowercased by contract)
        for url in random_urls(200, seed=11):
            parts = parse_url(url)
            rebuilt = parts.host + parts.path + parts.query
            original = url.strip()
            if "://" in original:
                original = original.split("://", 1)[1]
            assert sorted(rebuilt.replace("?", "").lower()) == sorted(
                original.replace("?", "").lower()
            )


class TestExtractFeatures:
    def test_ip_login_example(self):
        raw = "http://192.168.0.1/login"
        assert len(raw) == 24  # independent counting oracle
        vec = extract_features(raw, SPEC)
        assert vec[idx("url_length")] == 24
        assert vec[idx("host_is_ip")] == 1
        assert vec[idx("kw_login")] == 1

    def test_https_example(self):
        vec = extract_features("https://example.com", SPEC)
        assert vec[idx("has_https")] == 1
        assert vec[idx("count_digits")] == 0
        assert vec[idx("kw_login")] == 0

    def test_purity(self):
        for url in ("http://a-b.com/x?y=1", "192.168.0.1", "weird%%zz"):
            a = extract_features(url, SPEC)
            b = extract_features(url, SPEC)
            assert np.array_equal(a, b)

    def test_keyword_matching_case_insensitive(self):
        assert extract_features("http://x.com/LOGIN", SPEC)[idx("kw_login")] == 1
        assert extract_features("http://x.com/LoGiN", SPEC)[idx("kw_login")] == 1

    def test_malformed_percent_encoding_is_literal(self):
        vec = extract_features("http://x.com/%zz%", SPEC)
        assert vec[idx("count_special")] >= 2  # both % counted as characters

    def test_url_length_equals_len_on_random_urls(self):
        for url in random_urls(1000, seed=3):
            assert extract_features(url, SPEC)[idx("url_length")] == len(url)

    def test_value_ranges_on_random_urls(self):
        names = feature_names(SPEC)
        flags = [i for i, n in enumerate(names)
                 if n.startswith("kw_") or n in ("has_https", "host_is_ip")]
        counts = [i for i, n in enumerate(names)
                  if n.startswith("count_") or n.endswith("_length")
                  or n in ("path_depth", "num_subdomains")]
        ratio = names.index("digit_ratio")
        for url in random_urls(500, seed=5):
            vec = extract_features(url, SPEC)
            for i in flags:
                assert vec[i] in (0.0, 1.0)
            for i in counts:
                assert vec[i] >= 0 and vec[i] == int(vec[i])
            assert 0.0 <= vec[ratio] <= 1.0

    def test_empty_propagates(self):
        with pytest.raises(EmptyUrl):
            extract_features(" ", SPEC)


class TestFeatureSpec:
    def test_default_has_18_features(self):
        assert len(feature_names(SPEC)) == 18
        assert SPEC.dim == 18

    def test_two_extra_keywords_gives_20(self):
        spec = FeatureSpec(keywords=SPEC.keywords + ("paypal", "update"))
        assert len(feature_names(spec)) == 20

    def test_url_length_is_first(self):
        assert feature_names(SPEC).index("url_length") == 0

    def test_dimension_consistency(self):
        for url in random_urls(100, seed=9):
            assert len(extract_features(url, SPEC)) == len(feature_names(SPEC))

    def test_keyword_monotonicity(self):
        extended = FeatureSpec(keywords=SPEC.keywords + ("extra",))
        for url in random_urls(100, seed=13):
            base = extract_features(url, SPEC)
            more = extract_features(url, extended)
            assert np.array_equal(more[: len(base)], base)

    def test_duplicate_keyword_rejected(self):
        with pytest.raises(ConfigError, match="feature names must be unique"):
            FeatureSpec(keywords=("login", "login"))


class TestFeaturizeManyMatchesOracle:
    CASES = [
        "HTTPS://Example.COM/Path?Q=1",
        "HTTP://WWW.BANK.EXAMPLE/login",
        "example.com?next=/a/b",
        "http://a.com?x=/y/z",
        "example.com/r?u=http://evil.tk/login",
        "http://x.org/a?u=https://y.org/?z=1",
        "http://256.1.1.1/a",
        "http://1.2.3.999",
        "http://255.255.255.255/",
        "http://1.2.3.4\n/x",
        "  http://١٢٣.4.5.6/²³ \u2003",
        "\u00a0https://bank.example/٣\u3000",
        "weird%%zz",
        "http://a\udcff.com/x",  # a non-UTF-8 byte of a surrogate-escaped argument
    ]

    def test_cases_match_stacked_oracle(self):
        for spec in (SPEC, FeatureSpec(keywords=("paypal", "İ", "ss"))):
            got = featurize_many(self.CASES, spec)
            assert got.tobytes() == oracle_matrix(self.CASES, spec).tobytes()

    def test_random_urls_match_stacked_oracle(self):
        urls = random_urls(500, seed=17)
        assert featurize_many(urls, SPEC).tobytes() == oracle_matrix(urls, SPEC).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(url_text, min_size=1, max_size=8))
    def test_hypothesis_urls_match_stacked_oracle(self, urls):
        got = featurize_many(urls, SPEC)
        assert got.dtype == np.float64 and got.shape == (len(urls), SPEC.dim)
        assert got.tobytes() == oracle_matrix(urls, SPEC).tobytes()

    @pytest.mark.parametrize("block", [1, 3, 10**6])
    def test_pieces_split_across_urls_match_stacked_oracle(self, monkeypatch, block):
        urls = ["http:", "//a.com", "a.com/log", "in", "1.2.3", ".4", "xΣ", "x", "Σ", "İ.a/b"]
        monkeypatch.setattr(features, "_URL_BLOCK", block)
        for spec in (SPEC, BOUNDARY_SPEC):
            assert featurize_many(urls, spec).tobytes() == oracle_matrix(urls, spec).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(boundary_url, min_size=1, max_size=40))
    def test_block_size_does_not_change_features(self, urls):
        for spec in (SPEC, BOUNDARY_SPEC):
            want = oracle_matrix(urls, spec).tobytes()
            for block in (1, 3, 10**6):
                with mock.patch.object(features, "_URL_BLOCK", block):
                    assert featurize_many(urls, spec).tobytes() == want

    @settings(max_examples=100, deadline=None)
    @given(url_text)
    def test_extract_features_is_one_row_of_featurize_many(self, url):
        assert extract_features(url, SPEC).tobytes() == featurize_many([url], SPEC)[0].tobytes()

    @pytest.mark.parametrize("blank", ["", " ", "\t\n", "\u2003\u00a0"])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_whitespace_only_entry_anywhere_raises(self, blank, at):
        urls = ["http://a.com", "b.org/x", "http://1.2.3.4"]
        urls.insert(at, blank)
        with pytest.raises(EmptyUrl):
            featurize_many(urls, SPEC)


def test_featurize_many_shape():
    urls = random_urls(20, seed=21)
    mat = featurize_many(urls, SPEC)
    assert mat.shape == (20, 18)
    assert featurize_many([], SPEC).shape == (0, 18)


class TestUnicodeTables:
    """What the featurizer assumes of str.lower, checked on every code point,
    so that a Python whose Unicode tables break an assumption fails here."""

    def test_only_dotted_capital_i_lowercases_to_more_code_points(self):
        # host_length adds 1 for each U+0130 in the host
        assert code_points_where(lambda c: len(c.lower()) != 1) == ["\u0130"]

    def test_no_lowercase_adds_a_dot(self):
        # num_subdomains counts the dots of the host before lowercasing it
        assert code_points_where(lambda c: "." in c.lower()) == ["."]

    def test_non_ascii_lowercases_holding_ascii(self):
        # has_https reads an ASCII-lowercased scheme: no non-ASCII code point
        # lowercases to an h, t, p or s
        found = code_points_where(lambda c: not c.isascii()
                                  and any(x.isascii() for x in c.lower()))
        assert found == ["\u0130", "\u212a"]  # "i" + U+0307, and "k"

    def test_only_capital_sigma_lowercases_by_its_neighbours(self):
        # a block is lowercased whole unless it holds U+0130 or U+03A3
        assert code_points_where(lambda c: ("A" + c).lower() != "a" + c.lower()
                                 or (c + "A").lower() != c.lower() + "a") == ["\u03a3"]

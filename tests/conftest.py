import hashlib
import json

import numpy as np
import pytest
from hypothesis import Phase, settings

import urlsentry
from urlsentry.artifact import FORMAT_VERSION
from urlsentry.pipeline import Dataset

# CI skips shrinking: a failing example is reported as found, since shrinking one
# that grows whole models against the references can take minutes. Examples,
# their number and every assertion are those of the default profile.
settings.register_profile("ci", phases=[p for p in Phase if p is not Phase.shrink])

URL_SCHEMES = ("http://", "https://", "")
URL_TLDS = (".com", ".org", ".net", ".tk", ".xyz")
URL_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-_."


def random_url(rng: np.random.Generator) -> str:
    host = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz0123456789-"))
                   for _ in range(int(rng.integers(3, 15))))
    url = rng.choice(URL_SCHEMES) + host + rng.choice(URL_TLDS)
    if rng.random() < 0.6:
        depth = int(rng.integers(1, 4))
        url += "".join(
            "/" + "".join(rng.choice(list(URL_CHARS)) for _ in range(int(rng.integers(1, 8))))
            for _ in range(depth)
        )
    if rng.random() < 0.3:
        url += "?q=" + str(int(rng.integers(0, 10_000)))
    if rng.random() < 0.15:
        url += "&login=1"
    return url


def random_urls(n: int, seed: int = 0) -> list[str]:
    rng = np.random.default_rng(seed)
    return [random_url(rng) for _ in range(n)]


def separable_dataset(seed: int = 123, n_per_class: int = 10) -> Dataset:
    """2-d points split by the plane x + y = 5; separation is re-certified
    with an explicit margin check at build time."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(1.0, 0.3, size=(n_per_class, 2))
    x1 = rng.normal(4.0, 0.3, size=(n_per_class, 2))
    X = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    signed = X.sum(axis=1) - 5.0
    assert np.abs(signed).min() > 0.5, "toy set lost its separation margin"
    assert all((signed[i] > 0) == (y[i] == 1) for i in range(len(y)))
    return Dataset(X, y, [f"toy-{i}" for i in range(len(y))])


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def write_artifact(path, payload_text: str, **header) -> None:
    """Write payload_text in save_model's layout: the canonical header
    without its closing brace, ',"payload":', the payload text, "}" and a newline.

    The checksum is the SHA-256 of payload_text and format_version the current
    one, unless header gives them.
    """
    header = {
        "checksum": hashlib.sha256(payload_text.encode("utf-8")).hexdigest(),
        "created_at": "2026-01-01T00:00:00+00:00",
        "format_version": FORMAT_VERSION,
        **header,
    }
    path.write_text(canonical(header)[:-1] + ',"payload":' + payload_text + "}\n")


def read_artifact(path) -> tuple[dict, str]:
    """(header, payload text) of a file in save_model's layout."""
    head, key, rest = path.read_text().partition(',"payload":')
    assert key and rest.endswith("}\n")
    return json.loads(head + "}"), rest[:-2]


def rewrite_payload(path, mutate) -> None:
    """Apply mutate to a saved artifact's payload and store a matching checksum."""
    header, payload_text = read_artifact(path)
    payload = json.loads(payload_text)
    mutate(payload)
    write_artifact(path, canonical(payload), created_at=header["created_at"])


@pytest.fixture(scope="session")
def sample_csv() -> str:
    return urlsentry.sample_dataset_path()


@pytest.fixture
def toy_dataset() -> Dataset:
    return separable_dataset()

"""The bundled sample is the maker's output, byte for byte, and the maker's
benign URLs never hold a digit or a hyphen: one character test separates
them from every malicious form (the shortcut ROADMAP's State records)."""

import importlib.util
import random
from pathlib import Path

import pytest

import urlsentry

MAKER = Path(__file__).resolve().parents[1] / "tools" / "make_sample_data.py"


@pytest.fixture
def maker():
    spec = importlib.util.spec_from_file_location("make_sample_data", MAKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_sample_is_the_makers_output(maker, tmp_path, monkeypatch):
    out = tmp_path / "sample_urls.csv"
    monkeypatch.setattr(maker, "OUT", str(out))
    maker.main()
    assert out.read_bytes() == Path(urlsentry.sample_dataset_path()).read_bytes()


def test_benign_urls_hold_no_digit_or_hyphen(maker):
    rng = random.Random(0)
    for _ in range(100_000):
        url = maker.benign(rng)
        assert not set(url) & set("0123456789-"), url

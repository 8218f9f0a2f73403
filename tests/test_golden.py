"""Golden bits: what the models whose bits do not depend on the host write and print.

Raw random forests and raw k-NN train to the same payload on every BLAS kernel
and numpy SIMD level tried, so their checksums and predict outputs are pinned in
tests/data/golden.json. A change that alters them on purpose updates that file
in the same diff. CI runs this file again under OPENBLAS_CORETYPE=Prescott and
under NPY_DISABLE_CPU_FEATURES=X86_V4, which must give the same values.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from urlsentry.artifact import save_model
from urlsentry.cli import main
from urlsentry.config import PipelineConfig
from urlsentry.runner import dataset_fingerprint, load_labeled_dataset, train_artifact

from conftest import read_artifact

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


@pytest.mark.parametrize("kind", sorted(GOLDEN["payload_checksum"]))
def test_portable_models_match_their_golden_bits(kind, sample_csv, tmp_path, capsys):
    dataset, _ = load_labeled_dataset(sample_csv)
    artifact = train_artifact(dataset, PipelineConfig(feature_mode="raw", classifier=kind),
                              dataset_fingerprint(sample_csv))
    model = tmp_path / "model.json"
    save_model(artifact, str(model))
    assert read_artifact(model)[0]["checksum"] == GOLDEN["payload_checksum"][kind]

    urls = tmp_path / "urls.txt"
    with open(sample_csv, newline="", encoding="utf-8") as fh:
        urls.write_text("".join(row["url"] + "\n" for row in csv.DictReader(fh)),
                        encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(urls),
                 "--out", str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN["predict_stdout_sha256"][kind]

import os
import subprocess
import sys

import pytest

import urlsentry
from urlsentry.artifact import save_model
from urlsentry.config import PipelineConfig
from urlsentry.runner import load_labeled_dataset, train_artifact


def test_public_names_resolve():
    from urlsentry import ForestParams, TrainConfig, train_xgb  # noqa: F401
    from urlsentry import trees

    assert train_xgb is trees.train_xgb
    assert ForestParams is trees.ForestParams
    for name in urlsentry.__all__:
        assert getattr(urlsentry, name) is not None, name
    assert set(urlsentry.__all__) <= set(dir(urlsentry))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        urlsentry.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from urlsentry import no_such_name  # noqa: F401


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's urlsentry."""
    src = os.path.dirname(os.path.dirname(urlsentry.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


PREDICT_THEN_LIST_MODULES = """
import sys
from urlsentry import cli
code = cli.main(["predict", "--model", sys.argv[1], "--out", sys.argv[2],
                 "https://example.org/docs"])
print(code, *sorted(m for m in sys.modules if m.startswith("urlsentry.")))
"""


@pytest.mark.parametrize("feature_mode, classifier, unused", [
    ("raw", "knn", {"urlsentry.trees", "urlsentry.neural"}),
    ("raw", "mlp", {"urlsentry.trees"}),
    ("latent", "knn", {"urlsentry.trees"}),
    ("raw", "rf", {"urlsentry.neural"}),
])
def test_predict_imports_only_the_model_code_it_runs(
    feature_mode, classifier, unused, sample_csv, tmp_path
):
    cfg = PipelineConfig(feature_mode=feature_mode, classifier=classifier)
    dataset, _ = load_labeled_dataset(sample_csv)
    model = tmp_path / "model.json"
    save_model(train_artifact(dataset, cfg), str(model))
    done = run_fresh(PREDICT_THEN_LIST_MODULES, str(model), str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.splitlines()[-1].split()  # after the verdict line
    assert code == "0"
    assert "urlsentry.artifact" in modules
    assert not unused & set(modules)


def test_importing_the_cli_imports_no_model_code():
    done = run_fresh("import sys, urlsentry.cli; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    assert not {"urlsentry.trees", "urlsentry.neural"} & set(done.stdout.split())


INSTALL_TRACER = """
import sys
sys.path.insert(0, sys.argv[1])
import inproc
import urlsentry.cli
inproc.install(inproc.Tracer())
from urlsentry import artifact, neural, trees
pairs = [(artifact.encode, neural.encode),
         (artifact.predict_proba_mlp_batch, neural.predict_proba_mlp_batch),
         (artifact.predict_boosted_batch, trees.predict_boosted_batch),
         (artifact.predict_forest_batch, trees.predict_forest_batch)]
# each binding is wrapped once, around the function as defined
print(all(a is not d and a.__wrapped__ is d.__wrapped__ for a, d in pairs))
"""


def test_benchmark_tracer_installs_on_every_binding():
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    if not os.path.exists(os.path.join(perfbench, "inproc.py")):
        pytest.skip("no perfbench directory next to the tests")
    done = run_fresh(INSTALL_TRACER, perfbench)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]

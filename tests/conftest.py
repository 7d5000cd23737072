"""Shared fixtures: tiny corpora, frontends and one trained serving system.

Session-scoped so the (seconds-level) corpus generation, decoding and —
for the ``serve_*`` family — training cost is paid once per pytest run.
The serving fixtures live here (not in ``tests/serve``) because the
cluster tests (``tests/cluster``) exercise the same exported artifact;
defining them once keeps a single session cache instead of training the
system twice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.corpus import CorpusConfig, make_corpus_bundle
from repro.frontend import build_frontends
from repro.utils.rng import child_rng


#: ``pytest --hypothesis-profile=ci``: 1000 examples for a property test
#: that sets no budget, ten times any taken from :func:`tests.budget.examples`.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def tiny_config() -> CorpusConfig:
    """A 4-language, seconds-scale corpus configuration."""
    return CorpusConfig(
        n_languages=4,
        n_families=2,
        train_per_language=8,
        dev_per_language=4,
        test_per_language=6,
        durations=(10.0, 3.0),
        seed=1234,
    )


@pytest.fixture(scope="session")
def tiny_bundle(tiny_config):
    """Corpus bundle for the tiny configuration."""
    return make_corpus_bundle(tiny_config)


@pytest.fixture(scope="session")
def tiny_frontends(tiny_bundle):
    """Two confusion-channel frontends over the tiny bundle."""
    from repro.frontend import FrontendSpec

    specs = (
        FrontendSpec("FE_A", "dnn", 24, tau=0.5, base_error=0.10),
        FrontendSpec("FE_B", "gmm", 30, tau=0.55, base_error=0.12),
    )
    return build_frontends(tiny_bundle, specs=specs, top_k=3)


@pytest.fixture(scope="session")
def tiny_sausages(tiny_bundle, tiny_frontends):
    """Decoded train-corpus sausages of the first tiny frontend."""
    fe = tiny_frontends[0]
    return [
        fe.decode(u, child_rng(5, u.utt_id)) for u in tiny_bundle.train
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(99)


# ----------------------------------------------------------------------
# serving/cluster fixtures: one small trained system per session
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def serve_config():
    """A 4-language single-duration experiment config for serving tests."""
    from repro.core.config import ExperimentConfig, SystemConfig

    return ExperimentConfig(
        corpus=CorpusConfig(
            n_languages=4,
            n_families=2,
            train_per_language=8,
            dev_per_language=6,
            test_per_language=6,
            durations=(3.0,),
            seed=1234,
        ),
        system=SystemConfig(
            orders=(1, 2), svm_max_epochs=12, mmi_iterations=10
        ),
    )


@pytest.fixture(scope="session")
def serve_system(serve_config):
    """The in-memory pipeline trained under ``serve_config``."""
    from repro.core import build_system

    return build_system(serve_config)


@pytest.fixture(scope="session")
def serve_baseline(serve_system):
    """The baseline result of the shared system."""
    return serve_system.baseline()


@pytest.fixture(scope="session")
def serve_trained(serve_system, serve_baseline, serve_config):
    """The exported (score-ready) form of the shared system."""
    from repro.serve import export_trained

    return export_trained(serve_system, [serve_baseline], serve_config)


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory, serve_trained):
    """The shared system saved to disk once per session."""
    from repro.serve import save_system

    directory = tmp_path_factory.mktemp("artifact") / "system"
    save_system(directory, serve_trained, metadata={"origin": "tests"})
    return directory

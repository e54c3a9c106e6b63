"""Behaviour oracle: the structured reports of the shipped sample corpus
must match the committed goldens byte for byte.

The goldens under ``tests/golden/`` are the output of

    powertext corpus src/powertext/data/corpus/manifest.csv \
        --format structured --out tests/golden

one report per sample document plus ``corpus.json``, the per-genre
aggregate.  A change that means to alter these bytes regenerates them
with that command and says which bytes changed and why.
"""

from pathlib import Path

import pytest

from powertext.cli import main
from powertext.defaults import CORPUS_MANIFEST_FILE, data_path

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(path.name for path in GOLDEN_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def corpus_output(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    status = main(
        ["corpus", str(data_path(CORPUS_MANIFEST_FILE)), "--format", "structured", "--out", str(out)]
    )
    assert status == 0
    return out


def test_goldens_cover_nine_documents_and_the_aggregate(corpus_output):
    assert len(GOLDEN_NAMES) == 10 and "corpus.json" in GOLDEN_NAMES
    assert sorted(path.name for path in corpus_output.iterdir()) == GOLDEN_NAMES


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_structured_report_matches_golden_bytes(corpus_output, name):
    assert (corpus_output / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()

import pytest

from gcval.corpus import load_corpus
from gcval.engine import classify_row
from gcval.profile import compute_profile
from gcval.tate import run_tate

from pathlib import Path

CORPUS_PATH = Path(__file__).resolve().parent.parent / "src" / "gcval" / "data" / "corpus.jsonl"


@pytest.fixture(scope="session")
def corpus_entries():
    return load_corpus(CORPUS_PATH)


@pytest.fixture(scope="session")
def corpus_profiles(corpus_entries):
    """[(entry, tate, profile, row)] computed once for the whole run."""
    out = []
    for entry in corpus_entries:
        tate = run_tate(entry.model, entry.prime)
        prof = compute_profile(tate, entry.curve_point)
        out.append((entry, tate, prof, classify_row(prof)))
    return out

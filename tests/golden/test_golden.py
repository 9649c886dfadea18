"""Every case of the golden corpus prints and writes what the manifest records."""

import pytest

import corpus

MANIFEST = corpus.load_manifest()


def test_inputs_are_the_manifests():
    assert corpus.input_hashes() == MANIFEST["inputs"]


def test_every_case_is_in_the_manifest():
    assert list(corpus.ALL_CASES) == list(MANIFEST["cases"])


@pytest.mark.parametrize("name", corpus.ALL_CASES)
def test_case_matches_the_manifest(name):
    failure = corpus.mismatch(name, MANIFEST["cases"].get(name))
    assert failure is None, failure

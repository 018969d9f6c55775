"""Replay of the golden-output manifest (see golden.py): every command
line prints, exits and writes what the manifest records."""

import json

import pytest

import golden

with open(golden.MANIFEST, encoding="utf-8") as fh:
    MANIFEST = json.load(fh)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    assert golden.build_inputs(str(directory)) == MANIFEST["inputs"]
    return directory


def test_manifest_covers_the_cases():
    assert [e["argv"] for e in MANIFEST["entries"]] == [argv for argv, _ in golden._cases()]
    assert MANIFEST["ulps"] == golden.ULPS


@pytest.mark.parametrize("entry", MANIFEST["entries"], ids=lambda e: " ".join(e["argv"])[:80])
def test_entry(entry, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    code, out, err, written = golden.run(entry["argv"])
    assert code == entry["exit"]
    for name, text in (("stdout", out), ("stderr", err), ("output", written)):
        problem = golden.mismatch(text, entry[name])
        assert problem is None, f"{name}: {problem}"

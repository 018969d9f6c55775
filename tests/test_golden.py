"""Replay of the golden-output manifest (see golden.py): every command
line prints, exits and writes what the manifest records."""

import collections
import json
import math

import numpy as np
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


# the exact types the one JSON writer takes
WRITTEN = {dict, list, str, int, float, bool, type(None), np.ndarray}


def test_writer_meets_only_what_it_spells(inputs, monkeypatch):
    """Over every golden line, each node the writer meets has one of its
    exact types, each float is finite, and each array is a finite
    complex128 square matrix."""
    from bohrlab import cli

    encode = cli._encode
    met = collections.Counter()

    def audited(obj, write, indent="\n"):
        kind = type(obj)
        assert kind in WRITTEN, kind
        if kind is float:
            assert math.isfinite(obj)
        elif kind is dict:
            assert all(type(k) is str for k in obj)
        elif kind is np.ndarray:
            assert obj.dtype == np.complex128 and obj.ndim == 2 and len(obj) == obj.shape[1]
            assert np.isfinite(obj).all()
        met[kind] += 1
        return encode(obj, write, indent)

    # _encode recurses through the module global, so it meets every node
    monkeypatch.setattr(cli, "_encode", audited)
    monkeypatch.chdir(inputs)
    for entry in MANIFEST["entries"]:
        golden.run(entry["argv"])
    assert set(met) == WRITTEN

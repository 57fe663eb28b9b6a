"""Smoke run of scripts/identity_corpus.py on three pair seeds."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity_corpus.py"


def load():
    spec = importlib.util.spec_from_file_location("identity_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_corpus_prints_records_and_their_digest(capsys):
    corpus = load()
    assert corpus.main(["--deg2", "2", "--deg3", "1"]) == 0
    *records, last = capsys.readouterr().out.splitlines()
    kinds = [line.split(" | ")[0] for line in records]
    assert [k for k in kinds if k.startswith("planted")] == [
        "planted deg=2 seed=0", "planted deg=2 seed=1", "planted deg=3 seed=0"]
    # every planted pair is conjugate in Aut, every negative is not
    for line in records:
        verdict = next(f for f in line.split(" | ") if f.startswith("aut "))
        assert verdict.split()[1] == ("conjugate" if line.startswith("planted") else "not_conjugate")
    digest = hashlib.sha256("".join(line + "\n" for line in records).encode()).hexdigest()
    assert last == "sha256 " + digest
    # the slice's verdicts, witnesses and symbol names, pinned; the aut
    # vertex counts are those of the equal-colour pairs reachable from the
    # input pair, a negative's aut reason is the depth at which the orbit
    # trees differ, and its pol0 certificate is its closed configuration walk's
    assert last == "sha256 dfe6e60437fe23a438900071e05f97a5e615004bcb0b5a61bb8d0a12bb023d34"
    # a second run in the same process prints the same corpus
    corpus.main(["--deg2", "2", "--deg3", "1"])
    assert capsys.readouterr().out.splitlines()[-1] == last

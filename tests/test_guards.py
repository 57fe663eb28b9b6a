"""scripts/guards.py --against on two canned output directories."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "guards.py"

OLD = {
    "identity_corpus": "planted deg=2 seed=0 | pol0 conjugate\nnegative deg=2 seed=0 | pol0 old reason\nsha256 aaaa\n",
    "worked_examples": "example 1\nexample 2\n",
    "survey_random": "seeds 200\nno failures\n",
    "cli_transcripts": "2 conjugate odo.fr a a^-1 --cap 0 :: unknown\n0 parse odo.fr :: alphabet 2\nsha256 bbbb\n",
}
NEW = dict(
    OLD,
    identity_corpus="planted deg=2 seed=0 | pol0 conjugate\nnegative deg=2 seed=0 | pol0 new reason\nsha256 cccc\n",
    cli_transcripts="0 conjugate odo.fr a a^-1 --cap 0 :: conjugate\n0 parse odo.fr :: alphabet 2\nsha256 dddd\n",
    survey_random="seeds 200\nno failures\nsha256 eeee\n",
)


def test_against_prints_the_moved_lines_of_each_guard(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("guards", SCRIPT)
    guards = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guards)
    old = tmp_path / "old"
    old.mkdir()
    for name, text in OLD.items():
        (old / ("%s.txt" % name)).write_text(text)
    by_script = {args[0]: name for name, args in guards.GUARDS.items()}
    monkeypatch.setattr(guards, "run_guard", lambda args: NEW[by_script[args[0]]])
    assert guards.main(["--against", str(old), "--out", str(tmp_path / "new")]) == 0
    sha = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in NEW.items()}
    # a digest line is never a moved line, not even one that is new
    assert capsys.readouterr().out.splitlines() == [
        "sha256 %s  identity_corpus" % sha["identity_corpus"],
        "1 lines moved in identity_corpus",
        "- negative deg=2 seed=0 | pol0 old reason",
        "+ negative deg=2 seed=0 | pol0 new reason",
        "sha256 %s  worked_examples" % sha["worked_examples"],
        "0 lines moved in worked_examples",
        "sha256 %s  survey_random" % sha["survey_random"],
        "0 lines moved in survey_random",
        "sha256 %s  cli_transcripts" % sha["cli_transcripts"],
        "1 lines moved in cli_transcripts",
        "- 2 conjugate odo.fr a a^-1 --cap 0 :: unknown",
        "+ 0 conjugate odo.fr a a^-1 --cap 0 :: conjugate",
    ]
    assert {p.name: p.read_text() for p in (tmp_path / "new").iterdir()} == {
        "%s.txt" % name: text for name, text in NEW.items()}

"""The mutation check's snippets still name the guards they mutate."""

import mutants


def test_every_snippet_starts_exactly_one_line():
    # a guard that moved or changed fails here in seconds, not only in
    # the minutes-long `python3 tests/mutants.py`
    assert mutants.check_snippets() == []


def test_snippet_nested_deeper_does_not_match(tmp_path, monkeypatch):
    # an indented copy of a guard line contains the snippet as a
    # substring, but does not start with it
    pkg = tmp_path / "src" / "so3inv"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text("def f(den, K):\n    if K:\n"
                              "        if den % K == 0:\n"
                              "            raise ValueError\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", [
        ("guard", "m.py", "    if den % K == 0:\n", "    if False:\n"),
        ("outer", "m.py", "    if K:\n", "    if False:\n")])
    assert mutants.check_snippets() == [
        "guard: snippet found 0 times in m.py"]

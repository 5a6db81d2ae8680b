"""README.md's example config and library quick start, run as written, so
that a change which breaks the documented usage fails the suite."""

import io
import re
from pathlib import Path

from scoredetect.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(language, heading):
    """The first ``language`` code block after ``heading``."""
    section = README.split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_example_config_runs_every_listed_command(tmp_path, capsys, monkeypatch):
    (tmp_path / "cfg.json").write_text(fenced("json", "### Example config"))
    monkeypatch.chdir(tmp_path)
    commands = fenced("sh", "### Example config").splitlines()
    assert [line.split()[-1] for line in commands] == ["lfd", "calibrate", "bench", "detect",
                                                      "sample"]
    for line in commands:
        piped = re.match(r"printf '([^']*)' \| ", line)
        stdin = piped.group(1).replace("\\n", "\n") if piped else ""
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
        argv = line.split("scoredetect ", 1)[1].split()
        assert main(argv) == 0, line
    out = capsys.readouterr().out
    assert "drift_condition=PASS" in out
    assert "gamma=10000 omega=9.210340372" in out
    assert "stopped_at=none steps=2 " in out
    assert len((tmp_path / "samples.csv").read_text().splitlines()) == 100


def test_readme_quick_start_runs(capsys):
    exec(compile(fenced("python", "## Library quick start"), "README.md", "exec"), {})
    assert re.fullmatch(r"alarm at \d+\n", capsys.readouterr().out)

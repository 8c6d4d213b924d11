"""The README's command blocks are run, so the page cannot drift.

Every ```console block of README.md holds ``$ weaktri ...`` lines, each
followed by the stdout it prints.  A command may end in ``> FILE`` (stdout
goes to that file and nothing is printed), ``| head -n N`` (only the first
N lines are shown) and a ``# exits N`` note (the expected exit code, 0 when
absent).  The commands run in order through ``cli.main`` in one scratch
directory, so later blocks read the files earlier ones wrote.
"""

import re
import shlex
from pathlib import Path

from weaktri.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

COMMAND = re.compile(
    r"^\$ weaktri (?P<args>.*?)"
    r"(?: > (?P<file>\S+))?"
    r"(?: \| head -n (?P<head>\d+))?"
    r"(?:\s+# exits (?P<code>\d))?$"
)


def console_commands(text):
    """[(line, args, file, head, code, expected stdout)] in page order."""
    commands = []
    for block in re.findall(r"^```console\n(.*?)^```$", text, re.S | re.M):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk:
                continue
            line, _, out = chunk.partition("\n")
            match = COMMAND.match(line)
            assert match, f"not a weaktri command: {line!r}"
            commands.append(
                (
                    line,
                    shlex.split(match["args"]),
                    match["file"],
                    int(match["head"]) if match["head"] else None,
                    int(match["code"] or 0),
                    out,
                )
            )
    return commands


def test_every_console_block_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = console_commands(README.read_text())
    for line, args, file, head, code, want in commands:
        got_code = main(args)
        out = capsys.readouterr().out
        if file is not None:
            (tmp_path / file).write_text(out)
            out = ""
        if head is not None:
            out = "".join(out.splitlines(keepends=True)[:head])
        assert (got_code, out) == (code, want), line


def test_the_readme_shows_every_command_and_every_exit_code():
    commands = console_commands(README.read_text())
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert {args[0] for _, args, *_ in commands} == set(subparsers.choices)
    assert {code for *_, code, _ in commands} >= {0, 1, 2, 4}


def test_the_gf5_campaign_is_cited_with_its_budget():
    # cited here and run by tests/test_survey.py, which pins its report
    text = README.read_text()
    assert (
        "weaktri campaign --n 3 --field 'GF(5)' --dim 6 --contains-identity "
        "--budget 40053706056"
    ) in text
    assert "**186 over\n  GF(5)**" in text


def test_the_package_metadata_names_the_readme():
    pyproject = README.with_name("pyproject.toml").read_text()
    assert '\nreadme = "README.md"\n' in pyproject

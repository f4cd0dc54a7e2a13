"""The README's `## CLI` section stays true: its examples run, and its
header-key table matches the `meta` of each command's JSON report."""

import json
import re
import shlex
from pathlib import Path

import pytest

from permcode.cli import main

CLI_SECTION = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("\n## CLI\n")[1].split("\n## ")[0]
SH_BLOCK = re.search(r"```sh\n(.*?)```", CLI_SECTION, re.S).group(1)
EXAMPLES = [line.split(" #")[0].strip() for line in SH_BLOCK.splitlines() if line.startswith("permcode ")]
# the comment lines under the first example: lines of its stdout, or, ending in " ...", their prefixes
FIRST_OUTPUT = [line[2:].removesuffix(" ...") for line in SH_BLOCK.split("\n\n")[0].splitlines()[1:]]
HEADER_KEYS = {
    command: keys.split(", ")
    for command, keys in re.findall(r"^\| `(\w+)` \| ([\w, ]+) \|$", CLI_SECTION, re.M)
}

# one cheap run of each command in the header table
CHEAP_ARGV = {
    "pmax": ["pmax", "--n", "3", "--d", "2"],
    "classical": ["classical", "--n", "3", "--d", "2"],
    "sweep": ["sweep", "--r", "0.5", "--n-list", "4"],
    "sample": ["sample", "--measure", "plancherel", "--n", "4", "--count", "3"],
    "verify": ["verify", "--suite", "n3"],
    "bounds": ["bounds", "--kerov-n", "4", "--kerov-row-n", "4", "--kerov-row-d", "2", "--erdos-n", "4"],
}


def test_readme_lists_the_examples_and_header_table():
    assert len(EXAMPLES) >= 7 and EXAMPLES[0] == "permcode pmax --n 3 --d 2"
    assert FIRST_OUTPUT == ["p_quantum = 5/6 (0.833333333333)", "p_classical = 1/2 (0.5)"]
    assert set(HEADER_KEYS) == set(CHEAP_ARGV)


@pytest.mark.parametrize("example", EXAMPLES)
def test_readme_cli_example_exits_0(example, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # so that --output lands in the test's own directory
    assert main(shlex.split(example)[1:]) == 0
    out = capsys.readouterr().out
    if example == EXAMPLES[0]:
        lines = out.splitlines()
        assert all(any(line.startswith(shown) for line in lines) for shown in FIRST_OUTPUT)


@pytest.mark.parametrize("command", sorted(HEADER_KEYS))
def test_readme_header_keys_are_the_json_meta(command, capsys):
    assert main([*CHEAP_ARGV[command], "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["meta"]) == HEADER_KEYS[command]

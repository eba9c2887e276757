"""Every `$ torbound ...` line inside a README code fence, run through
cli.main in-process, prints exactly the lines shown under it, up to the next
`$` line or the end of the fence. `...` in a shown line stands for elided
text. Piped lines need a shell, so they are skipped, and each is named in
PIPED."""

import re
import shlex
from pathlib import Path

import pytest

from torbound.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PIPED = ()  # `$ torbound ... | ...` lines in README fences, skipped by name


def readme_examples():
    """(command line, shown output lines) for each `$ torbound` fence line."""
    examples = []
    in_fence = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            current = None
        elif in_fence and line.startswith("$ "):
            current = None
            if line.startswith("$ torbound "):
                current = (line[2:], [])
                examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


def matches(shown, printed):
    pattern = ".*".join(re.escape(part) for part in shown.split("..."))
    return re.fullmatch(pattern, printed) is not None


EXAMPLES = readme_examples()


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 11
    assert sorted(cmd for cmd, _ in EXAMPLES if "|" in cmd) == sorted(PIPED)


@pytest.mark.parametrize("command, shown", [ex for ex in EXAMPLES if ex[0] not in PIPED],
                         ids=[cmd for cmd, _ in EXAMPLES if cmd not in PIPED])
def test_readme_example_prints_what_it_shows(capsys, command, shown):
    code = main(shlex.split(command)[1:])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(printed) == len(shown), printed
    for want, got in zip(shown, printed):
        assert matches(want, got), (want, got)

"""The README examples, run as written.

Every ``$ pascal-rhombus ...`` line of the CLI block goes through
``cli.main`` and its stdout is compared with the lines shown under it; where
the shown output ends in ``...``, the lines before it are a prefix of the
real output.  The Library block is executed as it stands.
"""

import re
import shlex
from pathlib import Path

import pytest

from pascal_rhombus import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, fence):
    """The body of the first ``fence`` block after the ``heading`` line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^{fence}\n(.*?)^```$", section, re.S | re.M).group(1)


def _cli_examples():
    examples = []
    for line in _block("## CLI", "```").splitlines():
        if line.startswith("$ pascal-rhombus "):
            examples.append((shlex.split(line[len("$ pascal-rhombus "):], comments=True), []))
        else:
            examples[-1][1].append(line)
    return examples


EXAMPLES = _cli_examples()


def test_readme_has_the_seven_cli_examples():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_cli_example(capsys, argv, shown):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if shown[-1] == "...":
        shown = shown[:-1]
        out = out[:len(shown)]
    assert out == shown


def test_library_example():
    exec(_block("## Library", "```python"), {})

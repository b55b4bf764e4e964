"""The README's library quick start runs as it says, and its command tables match the parser."""

import argparse
import re
from pathlib import Path

from pmelab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _matches(printed: str, comment: str) -> bool:
    """Token by token; a token ending in ``...`` only has to start the printed one."""
    got, want = printed.split(), comment.split()
    return len(got) == len(want) and all(
        g.startswith(w[:-3]) if w.endswith("...") else g == w for g, w in zip(got, want)
    )


def test_the_quick_start_prints_its_value_comments():
    code = _quick_start()
    comments = [line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")]
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(printed) == len(comments) == 5
    for got, want in zip(printed, comments):
        assert _matches(got, want), (got, want)


def _leaf_parsers(parser, words=()):
    """``{command words: parser}`` for every subcommand that takes flags."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(words): parser}
    return {k: p for name, sub in subs[0].choices.items() for k, p in _leaf_parsers(sub, words + (name,)).items()}


def _flag_table() -> dict:
    """The README's command/flag table as ``{command words: set of flags}``."""
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z -]+?)(?: [A-Z]+)?` \| (.*) \|$", text, re.M)
    table = {}
    for command, cell in rows:
        same_as = re.match(r"as `([a-z -]+)`", cell)
        table[command] = set(re.findall(r"--[a-z0-9-]+", cell)) | (table[same_as.group(1)] if same_as else set())
    return table


def test_the_readme_flag_table_and_defaults_match_the_parser():
    leaves = _leaf_parsers(build_parser())
    taken = {
        command: {a.option_strings[0]: a for a in p._actions if a.option_strings and a.dest != "help"}
        for command, p in leaves.items()
    }
    assert _flag_table() == {command: set(flags) for command, flags in taken.items()}
    line = re.search(r"^Defaults: (.*?)\. ", README.read_text(encoding="utf-8"), re.M | re.S).group(1)
    documented = dict(re.findall(r"`(--[a-z0-9-]+) (\S+)`", line))
    actions = {s: a for flags in taken.values() for s, a in flags.items() if a.default is not None}
    assert set(documented) == set(actions)
    for flag, value in documented.items():
        action = actions[flag]
        assert (action.type or str)(value) == action.default, (flag, value, action.default)

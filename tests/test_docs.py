"""The README's library quick start runs and prints what its comments say."""

import re
from pathlib import Path

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

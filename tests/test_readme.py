"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_prints_what_its_comments_say(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    # each print's trailing comment is the line it prints
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["\\x0. f x0"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr() == ("\n".join(expected) + "\n", "")

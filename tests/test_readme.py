"""README's library example runs as written and gives the documented value."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(block, scope)
    # the value that the packaging check greps from `qnetcap capacity`
    assert scope["report"].value == 1.2121288023864227
    assert scope["line_report"].value == 0.125

"""The public API holds only what the demos, the CLI or the README use; tests alone do not count.

A use is code, not prose: a NAME token of a demo or of ``cli.py``, or a word
inside README backticks or a fenced block.
"""

import io
import re
import tokenize
from pathlib import Path

import bidal

ROOT = Path(__file__).resolve().parent.parent


def _code_names(path):
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {t.string for t in tokens if t.type == tokenize.NAME}


def _readme_code():
    """README text inside fenced blocks or inline backticks."""
    readme = (ROOT / "README.md").read_text()
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    rest = re.sub(r"^```[^\n]*\n.*?^```", "", readme, flags=re.S | re.M)
    return "\n".join(fenced + re.findall(r"`([^`\n]+)`", rest))


def _used_names():
    names = set()
    for path in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "src" / "bidal" / "cli.py"]:
        names |= _code_names(path)
    return names | set(re.findall(r"\w+", _readme_code()))


def test_all_is_sorted_and_resolves():
    assert bidal.__all__ == sorted(bidal.__all__)
    assert [n for n in bidal.__all__ if not hasattr(bidal, n)] == []


def test_every_export_is_used_outside_the_package():
    used = _used_names()
    assert [n for n in bidal.__all__ if n not in used] == []


def test_strings_and_comments_are_not_a_use(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text('print("pair cosine")  # forward\nscore = domainness\n')
    assert _code_names(demo) == {"print", "score", "domainness"}


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert len(namespace["picks"]) == 10

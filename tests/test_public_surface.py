"""The public API holds only what the demos, the CLI or the README use; tests alone do not count."""

import re
from pathlib import Path

import bidal

ROOT = Path(__file__).resolve().parent.parent


def _user_text():
    files = sorted((ROOT / "demos").glob("*.py"))
    files += [ROOT / "src" / "bidal" / "cli.py", ROOT / "README.md"]
    return "\n".join(p.read_text() for p in files)


def test_all_is_sorted_and_resolves():
    assert bidal.__all__ == sorted(bidal.__all__)
    assert [n for n in bidal.__all__ if not hasattr(bidal, n)] == []


def test_every_export_is_used_outside_the_package():
    text = _user_text()
    unused = [n for n in bidal.__all__ if not re.search(r"\b%s\b" % re.escape(n), text)]
    assert unused == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert len(namespace["picks"]) == 10

"""The README's list of entry points against the package."""

from __future__ import annotations

import re
from functools import reduce
from pathlib import Path

import matgreedy

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_entry_points_resolve():
    text = README.read_text()
    paragraph = text[text.index("Main entry points:"):].split("\n\n")[0]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) >= 10
    for name in names:
        assert reduce(getattr, name.split("."), matgreedy), name

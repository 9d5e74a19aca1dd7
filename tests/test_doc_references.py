"""Every Markdown file that text in ``src/`` cites exists in the tree.

A docstring or comment that points at ``DESIGN.md`` sends its reader to a
document that is not there; the statement it stands for belongs in place.
A cited name resolves against the repository root or the citing file's
directory.
"""

import re
from pathlib import Path

import repro.engine

SRC = Path(repro.engine.__file__).resolve().parents[2]
ROOT = SRC.parent

#: A file name ending in ``.md`` (``README.md``, ``docs/notes.md``).
MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


def test_src_cites_no_missing_markdown_file():
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), start=1):
            for name in MARKDOWN_NAME.findall(line):
                if not ((ROOT / name).is_file() or (path.parent / name).is_file()):
                    missing.append(f"{path.relative_to(ROOT)}:{number}: {name}")
    assert missing == []

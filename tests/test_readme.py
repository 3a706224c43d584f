import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_line_count_is_current():
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1]
    stated = re.search(r"^src/fatflats/\s+([\d,]+) lines$", layout, re.MULTILINE)
    assert stated, "the Layout section states no line count for src/fatflats/"
    total = sum(len(path.read_text().splitlines()) for path in (ROOT / "src" / "fatflats").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == total

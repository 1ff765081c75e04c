"""README's Python examples run as written.

The ```python blocks of README.md run in order, as one script, in a fresh interpreter
that imports the package these tests import; a block may use what an earlier one
defined. Each block asserts or prints what the text around it claims.
"""

import re
from pathlib import Path

from conftest import python_with_qiradar

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    done = python_with_qiradar(["-c", "\n".join(blocks)], capture_output=True, text=True,
                               timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""

"""The README's library tour runs as written and prints what it promises."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S)
    assert tour is not None, "the README has no python block under 'Library tour'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour.group(1), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the Betti table of k over k[x,y]/(x^2, y^2): the diagonal 1 2 3 4 5 6
    assert lines[:3] == ["        0 1 2 3 4 5", "     0: 1 2 3 4 5 6", " total: 1 2 3 4 5 6"]
    assert "verdict='yes-up-to-bounds'" in out.getvalue()
    assert "holds=True" in out.getvalue()

"""The CLI gives the output pinned in ``golden.json`` (see ``golden.py``)."""

from __future__ import annotations

import golden


def test_every_invocation_gives_its_golden_output(tmp_path):
    assert golden.check(tmp_path) == []

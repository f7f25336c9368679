"""Locate the stspgl sources of the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_stspgl():
    """Import stspgl from the checkout's `src`, never from an installed copy."""
    if not (SRC / "stspgl" / "__init__.py").is_file():
        raise SystemExit(f"no stspgl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stspgl.evalcli

    if Path(stspgl.__file__).resolve().parent != SRC / "stspgl":
        raise SystemExit(f"stspgl was imported from {stspgl.__file__}, not from {SRC}")
    return stspgl.evalcli

"""Locate the checkout's ``src/`` and make it the only source of qstream."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def use_checkout_src() -> None:
    """Put ``src/`` first on sys.path; exit 2 if the checkout has no qstream."""
    if not (SRC / "qstream" / "__init__.py").is_file():
        print(f"error: no qstream sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qstream

    if Path(qstream.__file__).resolve().parent != SRC / "qstream":
        print(f"error: imported qstream from {qstream.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)

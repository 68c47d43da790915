#!/usr/bin/env python3
"""Size counts of the package, for comparing one commit's design with another's.

    python tests/design_metrics.py

Prints JSON with the lines of the ``.py`` files under this checkout's
``src``, the public names (not starting with ``_``) that ``import qrepsim``
binds, submodules included, and the ``noqa`` markers in those files. Run it
in its own interpreter: a module imported before it, such as ``qrepsim.cli``,
would add its name to the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def design_metrics() -> dict[str, int]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))]
    sys.path.insert(0, str(SRC))
    import qrepsim

    return {
        "src_lines": sum(len(text.splitlines()) for text in texts),
        "public_names": sum(not name.startswith("_") for name in dir(qrepsim)),
        "noqa_markers": sum(text.count("# noqa") for text in texts),
    }


def main() -> int:
    print(json.dumps(design_metrics(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

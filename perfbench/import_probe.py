"""Time ``import repro.cli`` in a fresh interpreter and dump the span as JSON.

Run as ``python -m perfbench.import_probe --spans out.json`` from the
repository root with ``src`` on ``PYTHONPATH``.  This is what every
``repro`` command, ``repro serve`` included, imports before it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench.core import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)
    tracer = Tracer()
    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401
    args.spans.write_text(json.dumps({"spans": [vars(span) for span in tracer.spans]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

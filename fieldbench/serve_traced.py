"""The stock ``repro`` CLI with the benchmark's span wrappers installed.

Usage::

    python3 fieldbench/serve_traced.py SPANS.json serve NAME=PATH ...

Everything after the span path is passed to ``repro.cli.main``; when it
returns (``serve`` stops on SIGTERM), the span log is written to
``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from fieldbench.spans import Recorder
    from repro.cli import main as cli_main

    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    try:
        return cli_main(cli_args)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

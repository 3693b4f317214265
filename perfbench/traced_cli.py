"""Run one transopt CLI command with layer spans recorded.

Usage: python perfbench/traced_cli.py SPANS_OUT COMMAND_ID CLI_ARG...

Imports transopt from the checkout's `src`, wraps its layer functions (see
`spans.TARGETS`), calls `transopt.cli.main` with the CLI arguments, writes
the spans as JSON to SPANS_OUT and exits with the CLI's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import SpanRecorder


def main(argv: list[str]) -> int:
    spans_out, command = argv[0], int(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import transopt.cli  # noqa: F401  (loads every layer module)

    recorder = SpanRecorder(command)
    recorder.install()
    try:
        return transopt.cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        recorder.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

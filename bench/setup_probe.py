"""Set-up cost of one CLI invocation: a fresh interpreter's import plus one op.

Usage: python3 setup_probe.py <src dir> <cli argv...>
Prints one JSON object with the import and warm-up seconds and the op's exit code.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    from batchsched.cli import main as cli_main

    imported = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - START, "warmup_s": done - imported, "rc": rc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

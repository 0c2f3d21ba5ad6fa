"""Start `homemesh serve` with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 bench/serve_traced.py SPANS_FILE serve --listen ... --store ...

Everything after SPANS_FILE is handed to homemesh.cli.main unchanged. The
recorded spans are written to SPANS_FILE when the service exits (on SIGINT,
as for the plain command).
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import MODULES, Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    modules = {name: importlib.import_module(f"homemesh.{name}") for name in MODULES}
    tracer = Tracer()
    tracer.install(modules)
    try:
        return modules["cli"].main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for ``python -m cavityqfc``.

Usage: python3 perfbench/cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

Imports the package under an ``import.cavityqfc`` span, wraps the public
functions of every layer module, runs ``cavityqfc.cli.main`` on the
remaining arguments under a ``bench.op`` span, writes the spans as a JSON
list to SPANS_JSON and exits with the CLI's exit code.
"""

import json
import sys

from spans import OP, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.cavityqfc"):
        from cavityqfc import cli
    tracer.install()
    with tracer.span(OP):
        code = cli.main(argv)
    tracer.uninstall()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

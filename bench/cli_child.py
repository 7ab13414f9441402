"""A traced ``qmeasure`` CLI process, for the traced run of the cli_cold workload.

Usage: python bench/cli_child.py <qmeasure CLI arguments>

Runs ``qmeasure.cli.main`` with the benchmark's tracer installed, so the
per-layer numbers of a cold CLI call come from the same spans as in-process
workloads. The report goes to standard output as usual; the spans go to
standard error as one last line starting with SPANS_MARK.
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import qmeasure  # noqa: E402
import qmeasure.cli  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import SPANS_MARK  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    # the CLI's only json.dumps call writes the report
    tracer.install(qmeasure, extra=[(json, "dumps", "report.json_dumps")])
    try:
        return qmeasure.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(SPANS_MARK + json.dumps(tracer.spans) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

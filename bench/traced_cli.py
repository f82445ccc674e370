"""Run the tl_entangle CLI with spans recorded: the traced cli_oneshot op.

Usage: python3 bench/traced_cli.py <tl-entangle arguments>

Stdout is the CLI's own output.  When the CLI returns, one line
`TRACE <json>` goes to stderr with the span report (see tracing.py) and the
time `import tl_entangle.cli` took in this fresh process.  Process-pool
workers of scan-tangle3 keep their spans; only the parent's are reported.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer, install


def main():
    start = time.perf_counter()
    import tl_entangle.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = tl_entangle.cli.main(sys.argv[1:])
    sys.stdout.flush()
    report = tracer.report()
    report["import_s"] = import_s
    print("TRACE " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

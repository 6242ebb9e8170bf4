"""Run `edysec serve` with spans around the package's public functions.

    python3 perfbench/traced_serve.py SPANS.jsonl serve --artifact A --bind H:P

The spans are written to SPANS.jsonl when the server is stopped by SIGTERM
or SIGINT.
"""

import os
import signal
import sys

from tracing import Tracer, instrument, instrument_service


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from edysec import cli

    tracer = Tracer("server")
    instrument(tracer)
    instrument_service(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(argv)
    except KeyboardInterrupt:
        return 0
    finally:
        tracer.write(spans_path + ".tmp")
        os.replace(spans_path + ".tmp", spans_path)


if __name__ == "__main__":
    sys.exit(main())

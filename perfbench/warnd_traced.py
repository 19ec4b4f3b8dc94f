"""Start warnd with the benchmark's span wrappers installed.

    python perfbench/warnd_traced.py SPANS_JSON --plan PLAN --listen ADDR:PORT

Everything after SPANS_JSON goes to `roadwarn.warnd.main`.  The spans are
written to SPANS_JSON when the server exits (its stdin closes).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from roadwarn import warnd  # noqa: E402

from spans import Tracer, install_server  # noqa: E402


def main() -> int:
    out_path = sys.argv[1]
    tracer = Tracer(run_id=os.path.basename(out_path))
    install_server(tracer)
    try:
        return warnd.main(sys.argv[2:])
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())

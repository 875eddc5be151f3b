"""Run sigdesign CLI commands inside one interpreter, with or without tracing.

    python perfbench/inproc.py SPEC.json RESULT.json

SPEC holds {"argvs": [[...], ...], "stdouts": [file or null, ...],
"trace": bool, "spans": path}.  The commands run in the current
directory through `sigdesign.cli.main(argv)`, in order.  RESULT gets the
import time, each command's wall time and exit code, and, when tracing,
the patched sites; the spans are written to SPEC["spans"] at exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    t0 = time.perf_counter()
    import sigdesign.cli

    import_s = time.perf_counter() - t0
    import tracer

    sites = tracer.install() if spec["trace"] else {}
    walls, codes = [], []
    for argv, out in zip(spec["argvs"], spec["stdouts"]):
        sink = open(out, "w") if out else io.StringIO()
        with sink, contextlib.redirect_stdout(sink):
            t = time.perf_counter()
            try:
                code = sigdesign.cli.main(argv)
            except Exception:  # record the failure and go on to the next command
                traceback.print_exc()
                code = 1
            walls.append(time.perf_counter() - t)
        codes.append(code)
    if spec["trace"]:
        tracer.dump(spec["spans"])
    with open(result_path, "w") as f:
        json.dump({"import_s": import_s, "walls": walls, "codes": codes,
                   "sites": sites, "block": tracer.block_size()}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

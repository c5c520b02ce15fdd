"""Set-up probe run in a fresh interpreter.

Usage: python3 probe.py SRC_DIR OPS_JSON OUT_PATH

Times `import nlqsim` plus one warm-up operation of each command class
(the argument lists in OPS_JSON) and prints one JSON line with the
import time, the total set-up time and the exit code of each operation.
Only the standard library is imported before the clock starts, so the
numpy import that `nlqsim` pulls in is part of the set-up time.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, ops_path, out_path = sys.argv[1:4]
    with open(ops_path) as fh:
        argvs = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import nlqsim.cli

    t_import = time.perf_counter() - t0
    codes = []
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(nlqsim.cli.main(argv + ["--out", out_path]))
    total = time.perf_counter() - t0
    print(json.dumps({"import_s": t_import, "setup_s": total, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

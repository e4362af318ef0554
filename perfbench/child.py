"""One benchmark invocation in a fresh interpreter.

    python3 child.py --spawned T --src DIR [--trace FILE] -- CLI-ARGS...

T is the benchmark's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so ``setup_s`` covers
interpreter start-up plus ``import bellscope.cli``.  The CLI's own
``lru_cache``s start cold, as they do for a user.  With ``--trace`` the
layer tracer is installed after the import and its spans are written to
FILE when ``cli.main`` returns.  The last line of standard output is a JSON
object with ``setup_s``, ``main_s`` and ``exit_code``; the process exits
with the CLI's status.
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv

    sys.path.insert(0, options.src)
    from bellscope import cli

    setup_s = time.monotonic() - options.spawned
    tracer = None
    if options.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    started = time.perf_counter()
    exit_code = cli.main(argv)
    main_s = time.perf_counter() - started
    if tracer is not None:
        tracer.write(options.trace)
    print(json.dumps({"setup_s": setup_s, "main_s": main_s, "exit_code": exit_code}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

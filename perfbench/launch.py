"""Traced stand-in for `python -m pglatin.cli`.

    python3 perfbench/launch.py SPANS.json <pglatin cli arguments>

Installs the span wrappers, runs `pglatin.cli.main` on the arguments and,
however the command ends, writes the recorded spans to SPANS.json before
exiting with the command's exit code. The benchmark launches it in place
of the plain CLI for its traced passes, so the two differ only by tracing.
"""

import json
import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    import pglatin.cli

    try:
        return pglatin.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())

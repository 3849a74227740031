"""``python -m pascal_rhombus ARGV...`` with the tracer installed.

Usage: python3 perfbench/traced_cli.py FD ARGV...

Runs the CLI exactly as ``python -m pascal_rhombus`` does, then writes the
recorded spans to the inherited file descriptor FD and exits with the CLI's
exit code.
"""

import sys

import tracer


def main() -> None:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    recorder = tracer.install()
    from pascal_rhombus import cli

    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:          # argparse: usage errors and --help
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        recorder.dump(fd)
    sys.exit(code)


if __name__ == "__main__":
    main()

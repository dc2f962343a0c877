import os
import sys

from .cli import EXIT_IO, main


def run():
    """The process entry of both `python -m bihomlie` and the installed
    `bihomlie` script: main, then the flush that shows a reader gone away."""
    code = main()
    try:   # a reader gone away shows in this flush (a no-op if descriptor 1 was closed), not at exit
        print(end="", flush=True)
    except BrokenPipeError:   # what is still buffered goes nowhere
        code = EXIT_IO
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()

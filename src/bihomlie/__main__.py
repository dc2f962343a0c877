import os
import sys

from .cli import EXIT_IO, main

code = main()
try:   # a reader gone away shows in this flush (a no-op if descriptor 1 was closed), not at exit
    print(end="", flush=True)
except BrokenPipeError:   # what is still buffered goes nowhere
    code = EXIT_IO
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
sys.exit(code)

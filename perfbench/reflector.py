"""Loopback echo reflector for the probe workload: ``vpsband reflect`` in-process.

Prints the bound address as JSON on its first line.  SIGINT stops it,
and so does the end of its standard input, so it cannot outlive the
process that started it.
"""

import os
import signal
import sys
import threading

from vpsband import cli


def _interrupt_at_eof() -> None:
    sys.stdin.read()
    os.kill(os.getpid(), signal.SIGINT)


if __name__ == "__main__":
    threading.Thread(target=_interrupt_at_eof, daemon=True).start()
    sys.exit(cli.main(["reflect", "--listen", "127.0.0.1:0", "--json"]))

"""Time one fresh interpreter's import of jamnet plus one command.

Usage: python3 setup_probe.py <src dir> <command> <config> <out stem>

Prints one JSON line: main()'s exit code, the seconds from before the
import to the command's return, and the file jamnet was imported from.
"""

import time

start = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

src, command, config, out = sys.argv[1:5]
sys.path.insert(0, src)

import jamnet.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = jamnet.cli.main([command, "--config", config, "--out", out])
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - start,
                  "module": jamnet.cli.__file__}))

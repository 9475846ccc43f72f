"""One in-process CLI run and the digest the golden manifests pin.

golden/rounds.sha256 and golden/wholerange.sha256 hold one digest per argv:
the sha256 of its argv, exit code, stdout, stderr and any --out/--svg file,
each led by its length ("-" for a file not written), with the run's
directory written as {tmp}.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib

from symdyn.cli import main

HAS_NUMPY = importlib.util.find_spec("numpy") is not None


def run(argv: list[str], tmp: str) -> tuple[int, str, str, str]:
    """(exit code, stdout, stderr, digest) of main(argv), with tmp as {tmp}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    parts = [s.replace(tmp, "{tmp}").encode() for s in (" ".join(argv), str(code), out, err)]
    for flag in ("--out", "--svg"):
        if flag in argv:
            path = pathlib.Path(argv[argv.index(flag) + 1])
            parts.append(path.read_bytes() if path.exists() else None)
    h = hashlib.sha256()
    for data in parts:
        h.update(b"-\n" if data is None else b"%d\n" % len(data) + data)
    return code, out, err, h.hexdigest()

"""Byte identity of the CLI over the benchmark's rounds.

Each line of golden/rounds.sha256 is one invocation of a round that
bench/inputs.py builds: workload, seed, index in the round, command, and the
sha256 of its argv, exit code, stdout, stderr and any --out/--svg file, with
the round's directory written as {tmp}. The invocations run in-process
through cli.main. compose loads numpy, so its lines skip where numpy is
missing.

A change to the generator, or an intended change of output, writes the
manifest again, and the diff shows which lines moved:

    PYTHONPATH=src python tests/test_rounds.py > tests/golden/rounds.sha256
"""

import importlib.util
import pathlib
import sys
import tempfile

import pytest

from cli_digest import HAS_NUMPY, run

ROOT = pathlib.Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "rounds.sha256"
# The orbit-long round takes most of the time, so only its seed 1 runs here.
ROUNDS = [("cli-short", 1), ("cli-short", 2), ("cli-short", 3), ("psym-large", 1),
          ("psym-large", 2), ("psym-large", 3), ("orbit-long", 1)]


# bench/inputs.py, loaded from its file, since bench/ is no package; its
# dataclass looks its own module up in sys.modules.
_spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def replay(workload: str, seed: int, workdir: pathlib.Path):
    """Yield (index, argv with {tmp}, command, digest) for each invocation of
    the round; the digest is None for a compose line where numpy is missing."""
    tmp = str(workdir)
    for index, inv in enumerate(inputs.make_round(workload, seed, workdir)):
        argv = [a.replace(tmp, "{tmp}") for a in inv.argv]
        if inv.command == "compose" and not HAS_NUMPY:
            yield index, argv, inv.command, None
            continue
        yield index, argv, inv.command, run(inv.argv, tmp)[3]


@pytest.mark.parametrize("workload,seed", ROUNDS)
def test_round_output_bytes_are_pinned(tmp_path, workload, seed):
    pinned = {}
    for line in MANIFEST.read_text().splitlines():
        w, s, index, command, digest = line.split()
        if (w, int(s)) == (workload, seed):
            pinned[int(index)] = (command, digest)
    wrong, seen = [], 0
    for index, argv, command, digest in replay(workload, seed, tmp_path):
        seen += 1
        if digest is not None and pinned.get(index) != (command, digest):
            wrong.append(f"{workload} {seed} {index}: {' '.join(argv)}")
    assert seen == len(pinned), f"the round has {seen} invocations, the manifest {len(pinned)}"
    assert not wrong, "output bytes moved:\n" + "\n".join(wrong)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in ROUNDS:
            workdir = pathlib.Path(tmp, f"{workload}-{seed}")
            workdir.mkdir()
            for index, _, command, digest in replay(workload, seed, workdir):
                print(workload, seed, index, command, digest)

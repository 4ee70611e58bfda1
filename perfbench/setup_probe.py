"""Set-up of one benchmark process: import numpy and the library from the
checkout's ``src``, then make one tiny warm-up build through the CLI.

Run as a script (``python3 perfbench/setup_probe.py SRC WORKDIR``) it
prints its own set-up time in seconds and then the reference-loop time of
`speed.reference_time`, so the benchmark can sample set-up in fresh
processes and rescale it to reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

WARMUP = {"c_in": 4, "c_out": 8, "kernel": 3, "stride": 2, "seed": 0}


def setup(src: Path, work: Path) -> float:
    """Import numpy and the library, build one tiny kernel; seconds taken."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (its import is part of set-up)

    sys.path.insert(0, str(src))
    import orthokernel
    from orthokernel import cli

    if Path(orthokernel.__file__).resolve().parent != (src / "orthokernel").resolve():
        raise RuntimeError(f"orthokernel imported from {orthokernel.__file__}, not from {src}")
    cfg = work / "warmup.json"
    cfg.write_text(json.dumps(WARMUP))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["build", str(cfg), str(work / "warmup.okt")])
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"warm-up build exited {rc}")
    return time.perf_counter() - t0


if __name__ == "__main__":
    setup_s = setup(Path(sys.argv[1]), Path(sys.argv[2]))
    import speed

    print(repr(setup_s), repr(speed.reference_time()))

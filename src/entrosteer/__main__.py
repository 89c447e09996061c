"""Entry point of ``python -m entrosteer`` and the ``entrosteer`` script."""

import gc
import os


def main(argv: list[str] | None = None) -> int:
    """Run the command line with single-threaded BLAS, unless the caller's
    environment sets ``OPENBLAS_NUM_THREADS``, whose value then wins.

    The surveys multiply 4x4 to 25x25 matrices, too small for OpenBLAS
    worker threads to help: their spin-waiting only takes CPU from the main
    thread and from the ``--threads`` pool, which is the package's one
    parallelism. OpenBLAS reads the variable once, when numpy is first
    imported, so it is set here, before ``cli`` imports numpy.

    The modules ``cli`` imports live as long as the process: they load with the
    cyclic GC off and are frozen (``gc.freeze``), so no collection in the run or
    at exit scans them. Library imports of ``entrosteer.cli`` keep the default.
    """
    defaulted = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        from .cli import main as cli_main
    finally:
        gc.freeze()
        gc.enable()
    return cli_main(argv, blas_threads_defaulted=defaulted)


if __name__ == "__main__":
    raise SystemExit(main())

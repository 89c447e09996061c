"""Entry point of ``python -m entrosteer`` and the ``entrosteer`` script."""

import os


def main(argv: list[str] | None = None) -> int:
    """Run the command line with single-threaded BLAS, unless the caller's
    environment sets ``OPENBLAS_NUM_THREADS``, whose value then wins.

    The surveys multiply 4x4 to 25x25 matrices, too small for OpenBLAS
    worker threads to help: their spin-waiting only takes CPU from the main
    thread and from the ``--threads`` pool, which is the package's one
    parallelism. OpenBLAS reads the variable once, when numpy is first
    imported, so it is set here, before ``cli`` imports numpy.
    """
    defaulted = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv, blas_threads_defaulted=defaulted)


if __name__ == "__main__":
    raise SystemExit(main())

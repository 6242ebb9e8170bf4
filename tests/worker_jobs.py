"""Worker jobs for tests/test_workers.py that import nothing of edysec, so
that what a worker has imported is its own doing, not the job's: a job's
module is imported in the worker when its function is unpickled."""

import sys


def loaded(module: str) -> bool:
    return module in sys.modules

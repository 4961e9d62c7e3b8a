import sys

from bench.spec import SRC

# The tests build workloads in-process, so the simulator must import
# without PYTHONPATH=src.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

"""The cone-lab command: conelab.cli.main on one BLAS thread by default.

OpenBLAS, OpenMP and MKL split a product over threads in an order that
depends on their number, so the last bits of a certificate do too.  Unless
the caller sets one of their thread-count variables, this module sets all
three to 1 before numpy is first imported (conelab imports it), so the
CLI's results and certificates are the same on any machine.  If the
caller sets any of them, none is touched and the count is the caller's
(OpenBLAS and MKL read their own variable before OMP_NUM_THREADS).  Run it
as the cone-lab script or as `python -m cone_lab`.
"""

import os
import sys

_NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _NAMES):
    os.environ.update(dict.fromkeys(_NAMES, "1"))

from conelab.cli import main  # noqa: E402  (numpy must see the variables)

if __name__ == "__main__":
    sys.exit(main())

"""Tests run on one BLAS thread unless the caller sets a thread count.

Importing cone_lab applies its rule before numpy is first imported: unless
the caller set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS, all
three become 1.  On a loaded machine extra BLAS threads slow the suite's
small dense products down.  This file sits at the repository root so that
it covers tests/ and perfbench/ alike.
"""

import cone_lab  # noqa: F401  (sets the BLAS thread variables before numpy loads)

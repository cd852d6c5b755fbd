"""Cold start in a fresh interpreter: ``import ctxdrt``, then load the background.

Arguments are background postulate texts.  Prints the import time and the
load time in seconds, then the file the package was imported from.
"""

import sys
import time

t0 = time.perf_counter()
import ctxdrt  # noqa: E402

t1 = time.perf_counter()
ctxdrt.BackgroundTheory(tuple(ctxdrt.parse_drs(p) for p in sys.argv[1:]))
t2 = time.perf_counter()
print("%.9f %.9f %s" % (t1 - t0, t2 - t1, ctxdrt.__file__))

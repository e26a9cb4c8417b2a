"""numpy, loaded on first attribute use.

``from ._numpy import np`` binds a module that executes numpy the first
time one of its attributes is read, so the commands that never touch an
array (``allocate``, ``risk``, ``adjust``, ``coalition``, ``shapley``) start
without it.  After that first read ``np`` is the plain numpy module, so hot
loops pay nothing per access.  This is the ``importlib.util.LazyLoader``
recipe from the standard library documentation.

On Python 3.10 and 3.11 (and early 3.12 releases) ``LazyLoader`` takes no
lock while it loads.  So library code must not make its first numpy-backed
thirdrule call from several threads at once; the CLI and ``run_stress`` are
single-threaded.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)

"""scipy's compiled modules, loaded from their files.

``import scipy.signal`` takes ~0.5 s, and ``import scipy.linalg`` with
``scipy.special`` ~0.15 s, far more than the few kernels hypnopipe calls.
The compiled modules that hold those kernels load from their files in a few
ms each, without running their subpackage's ``__init__``: ``filters`` loads
``_sosfilt``, ``_upfirdn_apply`` and ``_special_ufuncs`` (for ``i0``) this
way, and ``linalg`` loads ``_flapack``, ``_fblas`` and ``_special_ufuncs``
(for ``ndtr``).

Each module is loaded once per process: it is registered in ``sys.modules``
under its own name, so a later call, or a host program's regular import of
its subpackage (``import scipy.linalg``), finds it there.  Callers load at
their own module's import, whose import lock makes a thread that needs the
module wait while another loads it.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def extension(package: str, name: str):
    """scipy's compiled module ``scipy.package.name``: the one this process
    has loaded, or loaded from its file, or by the regular import, which runs
    ``scipy.package``'s own, if none is found."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, package, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return sys.modules.setdefault(full, module)
    return importlib.import_module(full)

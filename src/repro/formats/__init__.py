"""``repro.formats`` — the matrix protocol and format registry.

One protocol, seven-plus representations.  :class:`MatrixFormat`
defines the uniform kernel surface (``right_multiply`` /
``left_multiply`` / panel variants with ``out=`` / ``executor=``, all
four over one ``_right`` / ``_left`` hook per format, operator sugar,
size accounting);
the registry maps format *names* to :class:`FormatSpec` records so
every other layer dispatches by name:

>>> import numpy as np, repro
>>> sorted(repro.formats.available())[:3]
['auto', 'blocked', 'cla']
>>> gm = repro.compress(np.eye(4), format="csrv")
>>> gm.format_name
'csrv'

Built-in specs live in :mod:`repro.formats.specs` and are registered
lazily on first registry use, which keeps ``import repro`` cycle-free.
New formats register themselves with :func:`register` — one file, and
the serving / serialization / benchmark / CLI / conformance layers all
pick the format up.
"""

from repro.formats.base import (
    MatrixFormat,
    check_panel,
    check_vector,
)
from repro.formats.registry import (
    FormatSpec,
    available,
    by_kind,
    compress,
    get,
    register,
    spec_for,
)

__all__ = [
    "MatrixFormat",
    "FormatSpec",
    "available",
    "by_kind",
    "compress",
    "get",
    "register",
    "spec_for",
    "check_vector",
    "check_panel",
]

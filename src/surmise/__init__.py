"""Prerequisite-hierarchy mining from binary judgment tables.

Given a models-by-targets matrix of correct/incorrect results, this
package groups equally-informative targets, orders the groups by a
flexible "whoever gets q right gets p right" criterion, reduces the
order to its covering edges, and emits the hierarchy as DOT, JSON, or
text.  Each module's ``__all__`` is its list of public names; all of them
are re-exported here.
"""
from . import hasse, io, kst, order, synth, table
from .table import *
from .kst import *
from .order import *
from .hasse import *
from .synth import *
from .io import *

__version__ = "0.1.0"

__all__ = [*table.__all__, *kst.__all__, *order.__all__, *hasse.__all__, *synth.__all__, *io.__all__]

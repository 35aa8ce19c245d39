"""In-place sorting of distinct unsigned integers with O(1) auxiliary memory.

The engine hashes each value to a (node, bit) address inside the list
itself, packs presence bitmasks into tagged words, and expands them back in
sorted order, one linear pass per value interval.  Companion modules
provide dataset generators, independent oracles, a work-count table, file
I/O and a CLI.  Each module's ``__all__`` is its one list of public names;
the package re-exports those lists.
"""

from . import bench, data_io, engine, generators, oracles
from .bench import *
from .data_io import *
from .engine import *
from .generators import *
from .oracles import *

__version__ = "0.1.0"

__all__ = [
    *bench.__all__,
    *data_io.__all__,
    *engine.__all__,
    *generators.__all__,
    *oracles.__all__,
    "__version__",
]

"""In-place sorting of distinct unsigned integers with O(1) auxiliary memory.

The engine hashes each value to a (node, bit) address inside the list
itself, packs presence bitmasks into tagged words, and expands them back in
sorted order, one linear pass per value interval.  Companion modules
provide dataset generators, independent oracles, a benchmark harness, file
I/O and a CLI.
"""

from .bench import (
    ALGORITHMS,
    BenchRecord,
    VerificationFailed,
    counting_sort,
    emit_csv,
    load_csv,
    run_suite,
)
from .data_io import FORMATS, ParseError, read_list, write_list
from .engine import (
    HOST_BITS,
    HOST_SPEC,
    CorruptState,
    DuplicateDetected,
    PassTally,
    PhaseEvent,
    Region,
    SortReport,
    ValueExceedsUniverse,
    WordSpec,
    WorkCounter,
    compute_hash,
    node_base,
    partition_idles,
    practice_pass,
    retrieve_sorted,
    run_pass,
    sort,
    sort_region,
    store_records,
)
from .generators import (
    FAMILIES,
    DatasetSpec,
    InfeasibleRange,
    gen_adversarial,
    gen_best_case,
    gen_full_universe,
    gen_uniform,
    generate,
    predict_worst_pass_bound,
)
from .oracles import oracle_sort, verify_pass_tally

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchRecord",
    "CorruptState",
    "DatasetSpec",
    "DuplicateDetected",
    "FAMILIES",
    "FORMATS",
    "HOST_BITS",
    "HOST_SPEC",
    "InfeasibleRange",
    "ParseError",
    "PassTally",
    "PhaseEvent",
    "Region",
    "SortReport",
    "ValueExceedsUniverse",
    "VerificationFailed",
    "WordSpec",
    "WorkCounter",
    "compute_hash",
    "counting_sort",
    "emit_csv",
    "gen_adversarial",
    "gen_best_case",
    "gen_full_universe",
    "gen_uniform",
    "generate",
    "load_csv",
    "node_base",
    "oracle_sort",
    "partition_idles",
    "practice_pass",
    "predict_worst_pass_bound",
    "read_list",
    "retrieve_sorted",
    "run_pass",
    "run_suite",
    "sort",
    "sort_region",
    "store_records",
    "verify_pass_tally",
    "write_list",
    "__version__",
]

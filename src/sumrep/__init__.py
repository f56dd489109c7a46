"""Exact h-fold sumset representation counting and growth certificates.

Public surface: canonical integer sets and base-h blocks (``intset``),
the exact counting engine with its brute-force oracle (``repcount``),
premise/certificate/bound verification (``verify``), the greedy repair
constructor (``construct``), and the command-line front end (``cli``).

Each fact of a theorem run has one producer: the least threshold is
``check_premise(A, h, ell, None, mode).n0`` when that report holds, the
witnesses are the ``block_growth_check`` rows (``TheoremReport.witnesses()``
collects them), and w0 is ``run_theorem(...).w0``.
"""

from .construct import ConstructionLog, DensityReport, density_report, greedy_repair
from .errors import (
    CertificateError,
    CountOverflowError,
    NegativeElementError,
    ParameterError,
    PrefixTooShortError,
    RangeOverflowError,
    SetFileError,
    SumrepError,
    WindowError,
)
from .intset import (
    BlockDecomposition,
    IntegerSet,
    block_of,
    blocks,
    counting,
    from_values,
    load_set,
    parse_set_text,
    save_set,
)
from .repcount import RepTable, rep_count, rep_count_naive, rep_table, sumset
from .verify import (
    BhsReport,
    BlockGrowthResult,
    BoundResult,
    Mode,
    PremiseReport,
    TheoremReport,
    Witness,
    block_growth_check,
    check_premise,
    compute_k0,
    distinct_tops,
    is_bhs,
    run_theorem,
    verify_counting_bound,
)

__version__ = "0.1.0"

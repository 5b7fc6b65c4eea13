"""Bootstrap percolation on permutation matrices.

Percolation dynamics, tile merging and bracketing, indecomposable
components, and exact counting of full / full-indecomposable / no-growth
permutations cross-validated by brute force, Schroeder recurrences,
series composition, and closed formulas.
"""

from .perm import (
    Word,
    comps,
    format_permutation,
    is_indecomposable,
    parse_permutation,
    reduced,
    reverse,
)
from .percolation import (
    FinalConfiguration,
    Grid,
    MutationLayers,
    PercolationTrace,
    Tile,
    final_configuration,
    is_full,
    matrix_of,
    mutable_cells,
    mutate,
    mutation_layers,
    percolate,
    render_trace,
)
from .melds import (
    Kind,
    Meld,
    MergeOutcome,
    bracket_strings,
    components_via_bracketing,
    merge_run,
    parse_meld,
    serialize_meld,
    top_level_kind,
)
from .counting import (
    CountReport,
    count_full,
    count_full_indecomposable,
    count_no_growth,
)
from .series import (
    Series,
    a_abramson_moser,
    a_formula,
    a_formula_table,
    a_via_series,
    compositions,
    schroeder_large,
    schroeder_little,
    series_B,
    series_compose,
    series_compose_horner,
    series_g,
    taylor_g,
)

__version__ = "0.1.0"

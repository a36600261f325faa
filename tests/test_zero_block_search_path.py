"""The zero-block search's differential, witness, floor, budget and near-plane tests, on the search alone.

Most of their inputs have at most matching._SHORT_SIDE rows or columns, and
max_zero_submatrix solves those by enumerating that side. Here the
search_only fixture sends every input down the bounded per-cell search
instead, so the tests hold on both paths and MATCHING_BUDGET still bounds
the search's matchings.
"""

import pytest

from test_plane_certificate import test_near_planes_get_the_full_search
from test_zero_block_differential import (
    test_circulants,
    test_every_3x3_matrix,
    test_plane_zero_block_costs_two_matchings,
    test_random_matrices,
    test_relabelled_planes_with_and_without_a_flip,
)
from test_zero_block_forced_side import (  # relaxations: the fixture the witness test records with
    relaxations,
    test_matchings_stay_within_budget,
    test_thin_and_wide_shapes,
    test_witnesses_match_the_per_cell_scan,
)

pytestmark = pytest.mark.usefixtures("search_only")

"""Substitution tilings generated from an arbitrary right triangle.

Any right triangle subdivides into five similar copies: four half-scale
copies of one similarity class and one of another.  Iterating on the
currently-largest tiles yields the supertile sequence T_n.  This package
constructs those tilings, classifies when the set of tile sizes and
orientations stays finite, computes exact and limiting population
statistics, analyzes the one-dimensional substitution dynamics along
fault lines, and renders the results as SVG.

Importing the package loads every tilelab module but ``reader`` (the
tiling file reader, which only the commands that read a tiling need;
benchmark tracing finds the others in ``sys.modules``), and neither
numpy nor mpmath: each
function that needs one imports it, so the exact integer commands
(``classify``, ``spectral --theta``, ``boundary --system til2|til13``)
never pay for the array library.  Each ``tilelab.<name>`` attribute is
the submodule of that name (``from tilelab.classify import classify``
for the function).  Fault-line words are plain ``str``s, one character
a letter.
"""

from .boundary import (SlippageProfile, SubstitutionRule1D, f_of_n,
                       forbidden_subwords_check, iterate, sigma0_til12,
                       sigma_til12, slippage_til12, til2_identity_check,
                       til2_offsets, til2_rule, til2_slippage_bound,
                       til13_fluctuation, til13_offsets, til13_rule)
from .classify import (ClassificationReport, OrientationCensus, convergents,
                       nearest_pi_fraction, orientation_census,
                       verify_orientation_count, verify_size_count)
from .errors import (ArgumentError, DomainError, GeometryError, InternalError,
                     NumericError, ResourceError, TilelabError)
from .geometry import (Placement, Similarity, Tile, TriangleShape,
                       shape_from_pq, shape_from_theta, tile_area, vertices)
from .render import fault_runs, render_svg
from .spectral import (IrrationalSpectrum, SpectralReport, char_poly,
                       descendant_limit, eigen, irrational_bounds,
                       irrational_char, irrational_density,
                       irrational_spectrum, orientation_matrices,
                       orientation_spectrum_check, population_matrix)
from .stats import (ComparisonReport, Histogram, OrientationHistogram,
                    area_fraction_limit, census_orientation_histogram,
                    census_size_histogram, count_fraction_limit, count_oracle,
                    empirical_size_fraction, equidistribution_frequency,
                    matrix_power_counts, orientation_comparison,
                    orientation_histogram, size_comparison, size_histogram)
from .substitution import (Tiling, build_Tn, census_counts, census_steps,
                           deflate, grow_supertile, root_tiling, subdivide,
                           tiling_from_json, tiling_to_json, trace_edge)

__version__ = "0.1.0"

"""weightfil: exact-arithmetic filtered (phi,N)-modules, spectral sequences
of filtered complexes, and building / arrangement combinatorics over Q."""

from .exact_linalg import (NewtonPolygon, Polynomial, QMatrix, Subspace,
                           char_poly, image, kernel, newton_polygon,
                           subspace_intersect, subspace_sum)
from .filtration import DECREASING, INCREASING, IndexedFiltration
from .phin import (AdmissibilityReport, PhiNModule, cbar_quotient,
                   check_opposite, hodge_numbers, image_filtration,
                   is_ordinary, is_weakly_admissible, kernel_filtration,
                   kernel_image_collapse, monodromy_filtration,
                   monodromy_weight_check, newton_numbers,
                   reduced_module_check, slope_filtration, t_numbers,
                   weight_filtration)
from .spectral import (FilteredComplex, GradedComplex, Page,
                       abutment_filtration, degeneration_page, e_page,
                       equivariant_degeneration_check, total_cohomology_dims)
from .nerve import NerveDatum, cech_complex, cech_vs_total_check, lambda_flags
from .steenbrink import (SteenbrinkDatum, analyze_steenbrink, cycle_datum,
                         steenbrink_double_complex)
from .drinfeld import (BuildingBall, LatticeClass, SimplexType, ball,
                       gaussian_binomial, simplices_through_vertex,
                       stratum_type, v_n_m, vertex_neighbors)
from .arrangements import (blowup_poincare, point_count_oracle,
                           rational_arrangement_poincare)

__version__ = "0.1.0"

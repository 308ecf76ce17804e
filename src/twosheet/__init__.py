"""Numerics for a two-sheet Lorentzian spectral geometry.

Building blocks: an explicit gamma/Krein algebra for signature (-,+,+,+),
finite internal spectral triples (two-point and electroweak), the Connes
spectral distance with a grid oracle, the causal structure of the
two-sheet space, the causal/harmonic/non-causal classification of plane-wave
spinors, and scalar inner fluctuations of the electroweak model.
"""

from .causality import (BOUNDARY_TOL, EmbeddingMetric, Event, MixedState, SheetPoint,
                        affine_cone_matrix, affine_worst_eigenvalue, causally_related_mixed,
                        causally_related_pure, crossing_threshold, embedding_metric,
                        extremal_length_sq, extremal_length_sq_sheets, interpolation_threshold,
                        is_causal_affine_function, is_causal_element_two_sheet,
                        minkowski_precedes, proper_time, proper_time_curve_oracle,
                        sheet_crossing_grid, two_sheet_cone_matrix, two_sheet_worst_eigenvalue)
from .clifford import (GammaBasis, build_gamma_basis, extended_symmetry, krein_adjoint,
                       krein_product, matrices_close, slash)
from .dispersion import (DEFAULT_SPINOR, PlaneWaveMode, SpinorClass, SpinorKind,
                         classify_spinor, dirac_momentum, internal_mass, krein_ratio,
                         krein_ratio_matrix, momentum_covector_matrix, on_shell_energy)
from .distance import (AlgebraState, DistanceResult, GridSpec, connes_distance,
                       connes_distance_oracle, product_distance_sq)
from .errors import (CausalityError, DimensionError, DomainError, InternalError,
                     KreinNullError, NonHermitianError, OracleIntractable, StateError,
                     TwoSheetError, UnsupportedAlgebra, UnsupportedTriple)
from .finite_triple import (AxiomCheck, FiniteTriple, ValidationReport,
                            electroweak_triple, load_triple, quaternion, represent_ew, save_triple,
                            triple_from_dict, triple_to_dict, two_point_triple,
                            validate_axioms)
from .fluctuation import (EWAlgebraElement, HiggsField, fluctuated_triple, higgs_phi,
                          higgs_phi_completion, inner_fluctuation, pair_for_higgs, trace_phi_sq,
                          trace_phi_sq_closed_form)

__version__ = "0.1.0"

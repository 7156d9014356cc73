"""buildctl: recognition and diagnosis of metric building structures.

Decides the 1-dimensional building dichotomy exactly on metric graphs,
recursively certifies spherical and Euclidean complexes through their cell
links, constructs apartments by sector propagation, and decomposes
recognized buildings into join factors.
"""

from .angles import Angle, EPS_ANGLE, EPS_GRAM, Q_MAX, rationalize
from .complexes import (MetricComplex, SimplexShape, ValidationReport,
                        ComplexError, InvalidComplexError, validate,
                        vertex_link, cell_link, orthogonal_join, suspension,
                        discrete_complex, s0, loads, load_path, parse_json_dict)
from .metric_graph import MetricGraph, GraphPoint, Circle, AntipodeSet
from .coxeter import (CoxeterMatrix, CoxeterClassification, cosine_form,
                      classify, irreducible_components,
                      generate_reflection_group, coxeter_complex,
                      named_matrix, dihedral)
from .homotopy import simple_connectivity, Pi1Result
from .recognizer import (BuildingCertificate, Diagnosis, recognize_dim1,
                         enumerate_apartments_dim1, check_spherical,
                         check_euclidean, discrete_extension_check,
                         verify_def52, Chart, thin_isomorphic)
from .geodesics import (LocalGeodesic, extend_geodesic, geodesic_between,
                        propagate_apartment, propagate_all, shoot)
from .decompose import (suspension_factor, join_decompose,
                        euclidean_factor_hint, find_suspension_poles)
from . import corpus

__version__ = "0.1.0"

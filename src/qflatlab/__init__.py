"""qflatlab: desk-scale numerics for conformally flat metrics e^{2u}|dx|^2.

Logarithmic potentials of integrable densities, Q- and scalar curvature,
volume entropy and growth exponents, measure distances and ray lengths,
normality verdicts, and a verification suite of closed-form checks.
"""

from .constants import SphereConstants, cohn_vossen_bound, sphere_constants
from .errors import (ArityError, DimensionError, DomainEvalError,
                     FieldSyntaxError, InputError, NonIntegrableError,
                     NotRadialError, QflatError, QuadratureError,
                     RangeOverflowError, UnknownSymbolError)
from .fields import (Dimension, FieldCaps, FieldExpression, RadialProfile,
                     ScalarField, ShellEvaluator, as_dimension, constant_field,
                     eval_field, field_from_expression, parse_field,
                     radial_field, restrict_radial)
from .polynomials import (Polynomial, apply_laplacian_poly, ball_mean_poly,
                          monomials_upto, ph_dimension, poly_gradient,
                          poly_partial, radial_monomial)
from .calculus import (CurvatureReport, PizzettiCoefficients, ball_mean,
                       curvature_report, gradient, laplacian_power,
                       pizzetti_check, pizzetti_coeffs, polyharmonic_density,
                       q_curvature, scalar_curvature)
from .potential import (AlphaEstimate, PotentialEvaluator,
                        angular_log_kernel, angular_log_kernel_quadrature,
                        log_potential, total_mass_alpha)
from .fitting import GrowthEstimate, fit_loglog
from .geometry import (DiameterReport, MetricContext, classify_ray,
                       conformal_volume, diameter_estimate,
                       distance_growth_exponent, measure_distance,
                       ray_length, volume_classification, volume_growth)
from .normality import (AnalysisConfig, CohnVossenReport, Decomposition,
                        GrowthVerdict, NormalityReport, analyze_normality,
                        canonical_json, cohn_vossen_check, decompose,
                        growth_classifier, normality_condition_a,
                        normality_condition_b, normality_scalar_criterion)
from .gallery import Fact, GalleryEntry, gallery, gallery_entries, gallery_facts
from .verification import CaseResult, SuiteSummary, run_case, run_verification_suite
from .cli import (context_from_document, field_from_document, run_analysis,
                  sweep_csv, validate_spec_document)

__version__ = "0.1.0"

"""uccert: numerical certification toolkit for wave-type principal symbols.

Submodules:
    fields       metric/scalar fields, phase points, charts
    symbols      Hamiltonian brackets, signatures, pullbacks
    hypotheses   surface sampling and standing-assumption checks
    certify      pointwise pseudo-convexity certification
    rays         Hamiltonian ray tracing and contact classification
    grids        tensor grids, quadrature, stencils, bump corpora
    corner       extension-by-zero weak-form lab and smoothing commutator
    carleman     weighted-inequality sweep
    models       ready-made geometries and negative controls
    expressions  closed-form expression trees for config-defined fields
    cli          batch driver
"""

from .fields import (Chart, Jet, MetricField, PhasePoint, ScalarField, constant_metric,
                     linear_combination, pullback_scalar, squared_field)
from .symbols import (hp, hp2, hp2_bracket, hp2_matrix, lorentz_normal_form,
                      pullback_metric, pullback_metric_field, signature,
                      transport_covector)
from .hypotheses import (GeometrySpec, HypothesisReport, bent_surface, build_psi,
                         check_assumptions, sample_surface,
                         verify_split_signs, verify_sublevel_inclusion)
from .certify import (Certificate, certify, certify_fields, compute_lambda0,
                      compute_m0, constraint_samples, unit_sphere_seeds)
from .rays import RayTrajectory, contact, integrate
from .models import (ModelSpec, bumpy_wave_metric, cone_surface_field,
                     flattening_chart, get_model, ik_model, negative_controls)
from .carleman import CarlemanReport, build_weight, exponent_slopes, lambda_sweep
from .corner import (CornerField, PairingTables, corner_corpus,
                     detect_layer, kink_profile_corpus, mollifier_commutator,
                     verify_extension_identities, verify_inequality_transfer,
                     weak_pairing)
from .grids import Grid, ProductBump, make_grid, bump_corpus, unit_box
from .expressions import expression_field

__version__ = "0.1.0"

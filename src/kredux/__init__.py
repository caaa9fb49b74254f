"""kredux: a numerical laboratory for circle-invariant Kahler structures on a
product total space, their reductions, and the geometric flows the family of
reduced metrics traces out."""

from .curvature import (check_moment_ricci_identity, descending_ricci,
                        descending_scalar, laplacian_m, laplacian_p, ricci_m,
                        ricci_p, scal_m, scal_p)
from .errors import (ClassNotFixed, Degenerate, HypothesisViolated,
                     KreduxError, NonConcave, NotConverged, NotPositive,
                     OutOfRange, OutOfWindow, PositivityLost,
                     SolvabilityViolated, StepUnstable)
from .fields import (Form11M, Form11P, ScalarFieldM, ScalarFieldP,
                     d_wedge_dc, ddc_m, ddc_p, grad_pair, integrate_m,
                     jv_apply, wedge_square)
from .fixtures import (bump, cylinder, perturbed, reference_ricci,
                       reference_sigma)
from .flows import (FlowPath, calabi_energy, calabi_integrate,
                    geodesic_residual_path, kr_integrate, kr_time_map,
                    pseudo_calabi_integrate)
from .golden import golden_grid, mu_singquot, run_golden, singquot_moment
from .grids import TestbedGrid, radial_grid, torus_grid
from .lift import (LiftResult, admissible_taus, calabi_converse_w,
                   concavity_shift, legendre_lift, realized_window,
                   roundtrip_check)
from .reduction import (LevelSet, ReductionResult, check_dcred, check_dertau,
                        default_taus, laplace_reduced, level_set, ma_reduced,
                        reduce_form, reduce_scalar, reduced_potential)
from .reports import ResidualReport
from .statics import (constant_profile, h_canonical, lambda_mean,
                      reparametrize, residual_calabi, residual_geodesic,
                      residual_kr, residual_pseudo_calabi, residual_v_soliton)
from .structure import (KahlerData, PositivityCertificate, assemble, gauge,
                        potential_from_moment)

__version__ = "0.1.0"

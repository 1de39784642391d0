"""cylspec: spectral models for deformation operators with cylindrical ends.

Finite-dimensional Dirac models on flat tori and discrete surfaces, their
indicial roots, weighted Fredholm indices with wall crossing, and exact
per-mode solvers for the translation-invariant half-cylinder operator.
"""

from . import errors
from .cylinder import (CylinderOperator, CylinderSolution, Perturbation,
                       asymptotic_limit, kernel_in_window, make_perturbation,
                       perturbed_kernel_count, solve_cylinder)
from .dec import (CochainComplex, SymmetricOperator, build_dec,
                  genus2_quad_complex, laplacian0, laplacian0_dual, laplacian1,
                  quad_torus_complex, smallest_eigenvalues)
from .index import (EndSystem, IndexReport, fixed_moduli_vdim, fredholm_index,
                    is_critical, is_lagrangian, symplectic_form,
                    varying_moduli_vdim, wall_crossing)
from .lattice import FlatTorus, dual_lattice_points, square_torus, torus_fourier_spectrum
from .mesh import (TriangulatedSurface, genus2_mesh, parametric_torus_mesh,
                   read_off, surface_from_triangles, triangulated_torus_mesh,
                   write_off)
from .models import (DiracModel, Eigenbasis, I1, I2, I3, build_sl_model,
                     build_torus_model, check_model, sl_laplacian_blocks)
from .spectral import (Spectrum, eigendecompose, homogeneous_kernel,
                       indicial_roots, principal_angle_gap, spectrum_to_csv,
                       synthetic_spectrum)

__version__ = "0.1.0"

"""chaincert: exact-arithmetic certification of model-structure classes.

The package computes with bounded non-negatively graded chain complexes of
finitely presented modules over Z or Z/m, their simplicial counterparts
through the Dold-Kan correspondence, and produces checkable witnesses for
membership in the cofibration / fibration / weak-equivalence classes of
the Hurewicz, Quillen, mixed, and dual Bousfield structures.
"""

from .exact.rings import RingSpec, ZZ, Zmod
from .exact.matrix import Matrix
from .exact.modules import (HomSpace, ModuleMap, PresentedModule, cokernel,
                            direct_sum, kernel, map_equal, tensor_sum_module)
from .exact.snf import SNFResult, snf, solve
from .exact.splitting import is_split_epi, is_split_mono
from .chains.build import (brutal_truncation, disk, interval, sphere,
                           unit_complex, zero_complex)
from .chains.complexes import (ChainComplex, ChainHomotopy, ChainMap,
                               LiftingProblem, chain_map_equal)
from .chains.cochain import CochainMap, dualize_map
from .chains.cones import mapping_cocylinder, mapping_cone, mapping_cylinder
from .chains.homcx import hom_complex
from .chains.homotopy import (find_contraction, is_chain_homotopy_equivalence,
                              quasi_iso)
from .chains.tensor import tensor_complex
from .chains.truncate import WindowComplex, good_truncation
from .models.classify import (MCofibrationWitness, bousfield_classify,
                              classify, verify_m_cofibration)
from .models.factorize import factorize_h
from .models.hlp_hep import hep_check, hlp_check
from .models.lifting import solve_lifting
from .models.pushout import check_pushout_product_axiom, pushout_product
from .models.verdict import ClassBit, Verdict
from .models.yoneda import p_epic_check, split_epi_via_yoneda
from .simplicial.classify import (interval_cotensor,
                                  pushout_product_simplicial,
                                  simplicial_classify, simplicial_homotopic,
                                  solve_hep_simplicial, solve_hlp_simplicial)
from .simplicial.cotensor import ez_aw_dual_ops
from .simplicial.ez_aw import aw, ez, find_ez_aw_homotopy
from .simplicial.module import (SimplicialMap, SimplicialModule,
                                degreewise_tensor, gamma, normalize)
from .simplicial.surjections import Shuffle, shuffles

__version__ = "0.1.0"

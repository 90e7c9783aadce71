"""Exact diagram calculus for the annular Temperley-Lieb category at q = 1.

Morphisms are integer-coefficient-free formal sums of annular diagrams
over the Gaussian rationals, reduced to a canonical circle-free form.
The default working mode is the quotient in which essential circles are
set to zero; see `configure` to switch to the raw category.
"""

from . import config, diagram
from .canon import coordinates, enumerate_basis, ess_equal, f_apply, f_inverse, phi_chain
from .cheb import cheb_j, cheb_l, poly_str
from .config import configure
from .diagram import (
    Morphism,
    crossing,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    gen_u,
)
from .planar import (
    ess_generator,
    factorize,
    iota,
    iota_prime,
    is_planar,
    nested_caps,
    nested_cups,
    partial_trace,
    tensor,
)
from .projectors import (
    extremal,
    extremal_by_recursion,
    highest_weight,
    iso_diff,
    iso_diff_maps,
    iso_equal,
    jones_wenzl,
    jw_k0_check,
    jw_pair,
    jw_partial_trace_check,
    kariso_contract,
    linked_check,
    lowest_weight,
    nested_form_check,
    overlap_check,
    split_idempotent,
    split_idempotent_nested,
    verify_properties,
    weight_tensor,
)
from .rep import WeightMap, extremal_matrix, phi
from .scalar import GaussianRational
from .verify import run_suite

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the engine's memos and shrink the diagram pool; results do not change.

    It runs every function in `config.CACHE_CLEARS`, where each memo
    declared with `config.memo` and each dict table registers its clear.
    Then the pool keeps only the diagrams still alive, each interned as
    before, so a diagram kept by a live morphism is the very object that
    a fresh build returns.  Do not run it while another thread is
    building diagrams.
    """
    for clear in config.CACHE_CLEARS:
        clear()
    diagram.repool()


__all__ = [
    "GaussianRational",
    "Morphism",
    "WeightMap",
    "cheb_j",
    "cheb_l",
    "clear_caches",
    "configure",
    "coordinates",
    "crossing",
    "enumerate_basis",
    "ess_equal",
    "ess_generator",
    "extremal",
    "extremal_by_recursion",
    "extremal_matrix",
    "f_apply",
    "f_inverse",
    "factorize",
    "gen_cap",
    "gen_cup",
    "gen_d",
    "gen_id",
    "gen_u",
    "highest_weight",
    "iota",
    "iota_prime",
    "is_planar",
    "iso_diff",
    "iso_diff_maps",
    "iso_equal",
    "jones_wenzl",
    "jw_k0_check",
    "jw_pair",
    "jw_partial_trace_check",
    "kariso_contract",
    "linked_check",
    "lowest_weight",
    "nested_caps",
    "nested_cups",
    "nested_form_check",
    "overlap_check",
    "partial_trace",
    "phi",
    "phi_chain",
    "poly_str",
    "run_suite",
    "split_idempotent",
    "split_idempotent_nested",
    "tensor",
    "verify_properties",
    "weight_tensor",
]

"""Exact computation in free metabelian nilpotent groups of finite rank.

Words, collected canonical forms, a truncated matrix oracle for equality,
the generalized-inner automorphism calculus, and the decision procedure for
normality of automorphisms, plus a CLI front end (``metanil``).
"""

import sys

from .words import (
    DomainError,
    EngineFault,
    GroupParams,
    ParseError,
    PayloadError,
    Word,
    parse_word,
    retract,
)
from .core import (
    Element,
    all_basics,
    collect,
    collect_text,
    commutator,
    element_from_json,
    element_to_json,
    enumerate_basics,
    equals,
    gamma_layer,
    gen_element,
    identity,
    inverse,
    is_identity,
    left_normed,
    left_normed_rep,
    mul,
    normalize_left_normed,
    power,
    reduce_class,
)
from .magnus import (
    MagnusMatrix,
    kernel_selfcheck,
    magnus_of_word,
    oracle_equal,
)
from .autos import (
    AutoSpec,
    GenInnerData,
    PolyAutoData,
    apply_endo,
    apply_gen_inner,
    apply_poly_auto,
    aut_commutator,
    class2_conjugator,
    compose_endo,
    compose_gen_inner,
    epsilon_sum,
    flatten,
    gen_inner_from_json,
    gen_inner_to_json,
    gen_inner_to_spec,
    identity_spec,
    invert_gen_inner,
    invert_ia,
    is_ia,
    is_inner,
    spec_from_json,
    spec_to_json,
)
from .intsolve import (
    InfeasibilityCertificate,
    integer_solve,
    integer_solve_explain,
    smith_normal_form,
)
from .normality import (
    NotGeneralizedInner,
    delta_basis_rewrite,
    delta_min,
    delta_rewrite_injective,
    enumerate_deltas,
    eval_delta_comm,
    poly_to_gen_inner,
    synthesize_gen_inner,
)
from .verify import closure_membership, normal_closure_top_generators

__version__ = "0.1.0"


def _caches():
    """(name, function) for every lru_cache in metanil, named like "core.mul"."""
    for name, mod in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for attr, fn in vars(mod).items():
                if getattr(fn, "__module__", None) == name and hasattr(fn, "cache_clear"):
                    yield f"{name[len(__name__) + 1:]}.{attr}", fn


def cache_info() -> dict:
    """Hits, misses, maxsize and current size of every metanil cache, by name."""
    return {name: fn.cache_info() for name, fn in _caches()}


def clear_caches() -> None:
    """Empty every metanil cache, the layer systems of the decision included.

    The caches only save repeated work: results are the same cold or warm.
    A long-lived process can call this to release what they hold.
    """
    for _, fn in _caches():
        fn.cache_clear()

"""Exact Demazure characters and multiplicity bounds for finite root systems."""

from demazure.branching import (
    BranchingResult,
    LeviDatum,
    dimension_conserved,
    levi_length_bound,
    levi_weyl_dim,
    restrict_to_levi,
    unirad_mult_identity,
)
from demazure.characters import (
    Character,
    character_from_json,
    character_to_json,
    demazure_character,
    demazure_dim,
    demazure_operator,
    dual_weight,
    freudenthal_multiplicity,
    weight_multiplicity,
    weyl_character,
    weyl_dim,
)
from demazure.growth import DilationSequence, dimension_sequence, finite_differences, growth_degree
from demazure.roots import (
    RootSystem,
    Weight,
    add_weights,
    build_root_system,
    dominant_conjugate,
    is_dominant,
    pairing,
    rho,
    root_system,
    scale_weight,
    simple_reflection,
    sub_weights,
)
from demazure.sl3t import (
    Biweight,
    closed_mult,
    generator_biweights,
    mult_via_weights,
    sigma_member,
    theorem2_mult,
)
from demazure.weyl import (
    WeylElement,
    all_reduced_words,
    demazure_fold,
    demazure_product,
    from_word,
    identity,
    inverse,
    left_descents,
    longest_element,
    longest_parabolic,
    min_coset_rep,
    reduced_word,
    right_descents,
    simple_element,
    weyl_group,
)

__version__ = "0.1.0"

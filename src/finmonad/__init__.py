"""Monads, distributive laws, and their Eilenberg-Moore/Kleisli liftings
over finite categories, with every law checked exhaustively.

Every public name is imported from its defining submodule on first access
(PEP 562) and then cached here, so ``import finmonad`` loads no submodule
and a CLI command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Defining submodule -> the public names it exports through the package.
_EXPORTS = {
    "adjunction": (
        "Adjunction",
        "CommutingSquareL",
        "CommutingSquareR",
        "comparison_functor_em",
        "comparison_functor_kleisli",
        "identity_adjunction",
        "induced_comonad",
        "induced_monad",
        "mate_left",
        "mate_right",
    ),
    "construct": (
        "EmAlgebraCategory",
        "EmCoalgebraCategory",
        "KleisliCategory",
        "em_category",
        "em_coalgebra_category",
        "kleisli_category",
    ),
    "distlaw": (
        "DistributiveLaw",
        "MixedDistributiveLaw",
        "check_dist_law",
        "check_mixed_law",
        "enumerate_dist_laws",
        "enumerate_mixed_laws",
        "untypable_objects",
    ),
    "fincat": (
        "FinCategory",
        "Functor",
        "Morphism",
        "NatTrans",
        "check_functor",
        "check_naturality",
        "compose_functors",
        "enumerate_functors",
        "enumerate_nat_trans",
        "hcomp",
        "identity_functor",
        "identity_nat",
        "opposite",
        "validate_category",
        "vcomp",
        "whisker_left",
        "whisker_right",
    ),
    "monad": (
        "Comonad",
        "Monad",
        "check_comonad_laws",
        "check_monad_laws",
        "enumerate_comonads",
        "enumerate_monads",
        "identity_comonad",
        "identity_monad",
    ),
    "twofunctors": (
        "AdjLOneCell",
        "AdjLTwoCell",
        "AdjROneCell",
        "AdjRTwoCell",
        "CoalgebraLifting",
        "KleisliExtension",
        "LiftedComonad",
        "LiftedMonad",
        "MndBulletOneCell",
        "MndBulletTwoCell",
        "MndOneCell",
        "MndTwoCell",
        "MonadObjectInMnd",
        "check_joint_compatibility",
        "check_mixed_compatibility",
        "check_monad_object",
        "colift_monad",
        "enumerate_comonad_liftings",
        "enumerate_liftings",
        "extend_monad",
        "extract_dist_law",
        "extract_from_extension",
        "extract_mixed_from_colifting",
        "extract_mixed_from_lifting",
        "hom_iso_roundtrip",
        "lift_comonad",
        "lift_monad",
        "phi_e_1cell",
        "phi_e_2cell",
        "phi_k_1cell",
        "phi_k_2cell",
        "psi_e_1cell",
        "psi_e_2cell",
        "psi_k_1cell",
        "psi_k_2cell",
        "vec_phi_e_1cell",
        "vec_phi_e_2cell",
        "vec_psi_e_1cell",
        "vec_psi_e_2cell",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        # the defining submodules stay reachable as ``finmonad.<module>``
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))

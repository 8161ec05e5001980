"""A tiny dependent type theory kernel.

Dependent functions, natural numbers with induction, and user-declared
constants; definitional equality decided by normalization by
evaluation, cross-validated against an independent rewriting oracle.
"""

from .syntax import (
    App,
    Context,
    Const,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    Term,
    TmConst,
    Ty,
    TyConst,
    Var,
    Zero,
    alpha_eq,
    numeral,
    shift,
    subst1,
)
from .signature import Define, PostulateTm, PostulateTy, Signature
from .normal import is_normal
from .nbe import normalize_tm, normalize_ty
from .check import check_ty, conv_tm, conv_ty, declare, infer
from .rewrite import oracle_equal, rw_normalize
from .surface import elaborate, parse, print_nf

__all__ = [
    "App",
    "Context",
    "Const",
    "Define",
    "Lam",
    "Nat",
    "NatInd",
    "Pi",
    "PostulateTm",
    "PostulateTy",
    "Signature",
    "Succ",
    "Term",
    "TmConst",
    "Ty",
    "TyConst",
    "Var",
    "Zero",
    "alpha_eq",
    "check_ty",
    "conv_tm",
    "conv_ty",
    "declare",
    "elaborate",
    "infer",
    "is_normal",
    "normalize_tm",
    "normalize_ty",
    "numeral",
    "oracle_equal",
    "parse",
    "print_nf",
    "rw_normalize",
    "shift",
    "subst1",
]

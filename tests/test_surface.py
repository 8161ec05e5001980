"""Parser, elaborator, printer."""

import functools
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inline_reference
import parser_reference
from ttkernel import surface
from ttkernel.check import check
from ttkernel.errors import (
    ArityMismatch,
    DuplicateName,
    KernelError,
    Mismatch,
    ParseError,
    ResourceExhausted,
    UnknownName,
)
from ttkernel.nbe import normalize_tm
from ttkernel.rewrite import rw_normalize, unfold
from ttkernel.signature import Declaration, Define, PostulateTm, PostulateTy
from ttkernel.surface import (
    elab_tm,
    elab_ty,
    elaborate,
    parse,
    parse_expression,
    parse_type,
    print_case,
    print_nf,
    print_tm,
    print_ty,
    tokenize,
)
from ttkernel.syntax import (
    App,
    Const,
    Context,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    TyConst,
    Var,
    Zero,
    const_names,
    numeral,
    subst1,
)


def test_parse_free_model_postulates():
    decls = parse("postulate A\npostulate B (x : A)\npostulate f : (x : A) -> B x")
    assert len(decls) == 3
    sig = elaborate(decls)
    assert isinstance(sig.find(Declaration, "A"), PostulateTy)
    b = sig.find(Declaration, "B")
    assert isinstance(b, PostulateTy) and b.params == (TyConst("A"),)
    f = sig.find(Declaration, "f")
    assert isinstance(f, PostulateTm)
    assert f.params == (TyConst("A"),) and f.result == TyConst("B", (Var(0),))


def test_parse_numeral_sugar():
    sig = elaborate(parse("def two : Nat := 2"))
    assert sig.find(Declaration, "two") == Define("two", Nat(), Succ(2, Zero()))
    # a numeral, zero included, parses to one node
    assert parse_expression("1000")[0] == Succ(1000, Zero())
    assert parse_expression("succ zero")[0] == Succ(1, Zero())
    # so do nested runs of successors, over a free name, which is a use
    assert parse_expression("succ succ (succ x)")[:2] == (Succ(3, Const("x")), [("x", None, 1, 17)])
    assert elab_tm(sig, (), parse_expression("succ 2")) == Succ(3, Zero())


def test_parse_add_definition():
    src = r"def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; _ r. succ r)"
    sig = elaborate(parse(src))
    add = sig.find(Declaration, "add")
    assert isinstance(add, Define)
    assert add.body == Lam(Lam(NatInd(Var(1), Nat(), Var(0), Succ(1, Var(0)))))


def test_parse_fun_arrow_lambda():
    a = parse_expression(r"fun x => succ x")
    b = parse_expression(r"\x. succ x")
    sig = elaborate([])
    assert elab_tm(sig, (), a) == elab_tm(sig, (), b)


def test_parse_comments_and_whitespace():
    decls = parse("-- nothing here\n\npostulate A -- trailing\n")
    assert len(decls) == 1


@pytest.mark.parametrize(
    ("source", "lines"),
    [
        ("-- note\rpostulate A\rpostulate B", [2, 3]),
        ("postulate A -- note\rpostulate B", [1, 2]),
        ("postulate A\r\npostulate B", [1, 2]),
    ],
)
def test_a_line_ends_at_cr_lf_or_crlf(source, lines):
    # a comment ends at a bare carriage return too
    assert [(d.name, loc[0]) for d, _, loc in parse(source)] == list(zip("AB", lines))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse("postulate A :")
    assert e.value.line == 1 and e.value.col is not None


def test_parse_error_rejects_stray_token():
    with pytest.raises(ParseError):
        parse_expression("succ )")


def test_binder_ends_a_type_constant_application():
    # "( IDENT :" opens a dependent arrow's domain, never a term argument
    with pytest.raises(ParseError, match="expected 'eof', found '\\('") as e:
        parse_type("B a (x : A) -> B x")
    assert (e.value.line, e.value.col) == (1, 5)


def test_elaborate_unknown_name_carries_span():
    with pytest.raises(UnknownName) as e:
        elaborate(parse("def x : Nat := y"))
    assert e.value.line == 1


def test_elaborate_type_constant_in_term_position(sig_abf, sig_walkthrough):
    with pytest.raises(UnknownName):
        elab_tm(sig_abf, (), parse_expression("A"))
    # each error names the identifier and points at it
    term_errors = {"A": "'A' is a type constant, not a term", "nope": "unknown identifier 'nope'"}
    for name, message in term_errors.items():
        with pytest.raises(UnknownName, match=f"^{message}$") as e:
            elab_tm(sig_walkthrough, ("x",), parse_expression(f"x {name}"))
        assert (e.value.code, e.value.line, e.value.col) == ("unknown_name", 1, 3)
    # a term constant, a definition and an unknown name in type position
    for name in ("f", "add", "nope"):
        with pytest.raises(UnknownName, match=f"^'{name}' is not a type constant$") as e:
            elab_ty(sig_walkthrough, (), parse_type(f"Nat -> {name}"))
        assert (e.value.code, e.value.line, e.value.col) == ("unknown_name", 1, 8)


def test_elaborate_arity_error(sig_abf):
    with pytest.raises(ArityMismatch):
        elab_ty(sig_abf, (), parse_type("B"))


def test_elaborate_shadowing():
    t = elab_tm(elaborate([]), (), parse_expression(r"\x. \x. x"))
    assert t == Lam(Lam(Var(0)))


def test_elaboration_returns_the_parsed_tree(sig_walkthrough):
    # the parser builds core syntax, so elaboration checks names and builds nothing
    for text in ("add 2 3", r"\x. f x", "mul (add 1 1) 4"):
        p = parse_expression(text)
        assert elab_tm(sig_walkthrough, (), p) is p[0]
    p = parse_type("(x : A) -> B x")
    assert elab_ty(sig_walkthrough, (), p) is p[0]


def test_under_applied_constant_eta_expands(sig_abf):
    # a term constant is a head, which no unfolding touches: a postulate has
    # no body, and its eta-expansion is the normal form's, at its Pi
    t = elab_tm(sig_abf, (), parse_expression("f"))
    assert t == Const("f")
    assert unfold(sig_abf, t) is t
    pi = Pi(TyConst("A"), TyConst("B", (Var(0),)))
    assert rw_normalize(sig_abf, Context(), pi, t) == normalize_tm(sig_abf, Context(), pi, t) == Lam(App(t, Var(0)))


def test_definition_expansion_is_transparent(sig_walkthrough):
    t = elab_tm(sig_walkthrough, (), parse_expression("add 2 3"))
    assert normalize_tm(sig_walkthrough, Context(), Nat(), t) == Succ(5, Zero())


def test_print_numeral():
    assert print_nf(Succ(2, Zero())) == "2"


def test_print_numeral_past_str_limit_is_resource_exhausted():
    # library-built: the parser rejects a literal this long already
    big = numeral(10**4300)
    printers = [lambda: print_tm(big), lambda: print_nf(Succ(big.k, Zero())),
                lambda: print_case(Context(), Nat(), big)]
    for show in printers:
        with pytest.raises(ResourceExhausted, match="numeral is too long to print") as err:
            show()
        assert err.value.exit_code == 4
    assert print_tm(numeral(10**4299)) == "1" + "0" * 4299


def test_print_eta_long_variable():
    n = Lam(App(Var(1), Var(0)))
    assert print_nf(n, ("g",)) == r"\x0. g x0"


def test_print_non_dependent_arrow():
    assert print_ty(Pi(Nat(), Nat())) == "Nat -> Nat"
    assert print_ty(Pi(Pi(Nat(), Nat()), Nat())) == "(Nat -> Nat) -> Nat"


def test_print_dependent_arrow(sig_abf):
    ty = Pi(TyConst("A"), TyConst("B", (Var(0),)))
    assert print_ty(ty) == "(x0 : A) -> B x0"


def test_print_parse_roundtrip_terms(sig_walkthrough):
    import random

    from ttkernel.gen import GenerationStuck, gen_term, gen_type

    rng = random.Random(6)
    done = 0
    while done < 80:
        ty = gen_type(sig_walkthrough, Context(), rng, size=4)
        try:
            t = gen_term(sig_walkthrough, Context(), ty, 8, rng)
        except GenerationStuck:
            continue
        done += 1
        nf = normalize_tm(sig_walkthrough, Context(), ty, t)
        text = print_nf(nf)
        back = elab_tm(sig_walkthrough, (), parse_expression(text))
        assert back == nf, text


def test_print_parse_roundtrip_types(sig_abf):
    for src in ["Nat", "Nat -> Nat", "(x : A) -> B x", "A -> Nat", "(Nat -> Nat) -> A"]:
        ty = elab_ty(sig_abf, (), parse_type(src))
        assert elab_ty(sig_abf, (), parse_type(print_ty(ty))) == ty


def test_print_eliminator_roundtrip(sig_empty):
    t = NatInd(Var(0), Nat(), Zero(), Succ(1, Var(0)))
    text = print_tm(t, ("n",))
    back = elab_tm(sig_empty, ("n",), parse_expression(text))
    assert back == t


@pytest.mark.parametrize(
    "source, expr, ty",
    [
        ("postulate x0 : Nat", r"\y. x0", "Nat -> Nat"),
        ("def x0 : Nat := zero", r"\y. x0", "Nat -> Nat"),
        ("postulate x1 : Nat", r"\n. ind(n; m. Nat; x1; p r. x1)", "Nat -> Nat"),
        ("postulate x0 : Nat\npostulate C (n : Nat) (m : Nat)\npostulate h : (n : Nat) -> C n x0",
         r"\y. h y", "(y : Nat) -> C y x0"),
    ],
    ids=["term constant", "definition", "eliminator binders", "dependent Pi"],
)
def test_a_printed_binder_captures_no_constant(source, expr, ty):
    # a binder is named x<k>, so it must skip a constant of that name in its scope
    sig = elaborate(parse(source))
    t, a = elab_tm(sig, (), parse_expression(expr)), elab_ty(sig, (), parse_type(ty))
    nf = normalize_tm(sig, Context(), a, t)
    assert elab_tm(sig, (), parse_expression(print_tm(t))) == t, print_tm(t)
    assert elab_ty(sig, (), parse_type(print_ty(a))) == a, print_ty(a)
    assert elab_tm(sig, (), parse_expression(print_nf(nf))) == nf, print_nf(nf)


def test_print_application_grouping(sig_empty):
    t = App(Lam(Var(0)), App(Lam(Var(0)), Zero()))
    text = print_tm(t)
    assert elab_tm(sig_empty, (), parse_expression(text)) == t


def test_no_type_sort():
    with pytest.raises(UnknownName):
        elaborate(parse("postulate A : Type"))


def test_succ_argument_is_an_atom(sig_empty):
    # "g succ x" applies g to (succ x): succ grabs exactly one atom
    t = elab_tm(sig_empty, ("x", "g"), parse_expression("g succ x"))
    assert t == App(Var(0), Succ(1, Var(1)))


def test_print_nf_type(sig_abf):
    n = TyConst("B", (Var(0),))
    assert print_nf(n, ("a",)) == "B a"


def test_context_variables_skip_the_names_of_constants():
    # a constant named like a context variable keeps its name; the variable
    # takes the next free one, as a binder would
    ctx = Context((Nat(),))
    constant = print_case(ctx, Nat(), App(Lam(Var(0)), Const("v0")))
    variable = print_case(ctx, Nat(), App(Lam(Var(0)), Var(0)))
    assert constant == r"v1 : Nat |- (\x0. x0) v0 : Nat"
    assert variable == r"v0 : Nat |- (\x0. x0) v0 : Nat"
    sig = elaborate(parse("postulate C (n : Nat)\npostulate v0 : Nat\npostulate c : C v0"))
    with pytest.raises(Mismatch) as e:
        check(sig, ctx, Const("c"), TyConst("C", (Var(0),)))
    assert str(e.value) == "expected C v1, got C v0"


def test_zero_parameter_term_constant():
    sig = elaborate(parse("postulate c : Nat\ndef d : Nat := succ c"))
    c = sig.find(Declaration, "c")
    assert isinstance(c, PostulateTm) and c.params == ()
    assert sig.find(Declaration, "d").body == Succ(1, Const("c"))


# The benchmark's preludes and a chain of definitions d0..d3.
ARITH_SOURCE = r"""
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def mul : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; zero; p r. add n r)
def exp : Nat -> Nat -> Nat := \b. \e. ind(e; _. Nat; 1; p r. mul b r)
"""
CROSSVAL_SOURCE = r"""
postulate A
postulate B (x : A)
postulate f : (x : A) -> B x
postulate C (n : Nat)
postulate c0 : C zero
postulate h : (n : Nat) -> C n
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def twice : Nat -> Nat := \n. add n n
"""
CHAIN_SOURCE = r"""def d0 : Nat -> Nat := \n. succ n
def d1 : Nat -> Nat := \n. d0 (d0 n)
def d2 : Nat -> Nat := \n. d1 (d1 n)
def d3 : Nat -> Nat := \n. d2 (d2 n)
"""


# Sources whose token lists are pinned: the benchmark's preludes, a chain of
# definitions and edge cases. Each token shows as text@line:col, prefixed
# by its kind when that is not the text.
TOKENIZED = {
    "arith": ARITH_SOURCE,
    "crossval": CROSSVAL_SOURCE,
    "chain 3": CHAIN_SOURCE,
    "tabs": "def\tx :\t\tNat := 12",
    "crlf": "postulate A\r\ndef x : Nat := 2\r\n",
    "primes": "\\x'. \\x''. x' x''_1",
    "comment": "def x : Nat := zero -- done\n",
    "comment eof": "def x : Nat := -- missing",
    "keywords": "postulated defx Natural zero1 succ' fun_ _ind ind(succzero)",
}
PINNED_TOKENS = {
    "arith": (
        "def@2:1 ident:add@2:5 :@2:9 Nat@2:11 ->@2:15 Nat@2:18 ->@2:22 Nat@2:25 :=@2:29 "
        "\\@2:32 ident:m@2:33 .@2:34 \\@2:36 ident:n@2:37 .@2:38 ind@2:40 (@2:43 ident:m@2:44 "
        ";@2:45 ident:_@2:47 .@2:48 Nat@2:50 ;@2:53 ident:n@2:55 ;@2:56 ident:p@2:58 "
        "ident:r@2:60 .@2:61 succ@2:63 ident:r@2:68 )@2:69 def@3:1 ident:mul@3:5 :@3:9 "
        "Nat@3:11 ->@3:15 Nat@3:18 ->@3:22 Nat@3:25 :=@3:29 \\@3:32 ident:m@3:33 .@3:34 \\@3:36 "
        "ident:n@3:37 .@3:38 ind@3:40 (@3:43 ident:m@3:44 ;@3:45 ident:_@3:47 .@3:48 Nat@3:50 "
        ";@3:53 zero@3:55 ;@3:59 ident:p@3:61 ident:r@3:63 .@3:64 ident:add@3:66 ident:n@3:70 "
        "ident:r@3:72 )@3:73 def@4:1 ident:exp@4:5 :@4:9 Nat@4:11 ->@4:15 Nat@4:18 ->@4:22 "
        "Nat@4:25 :=@4:29 \\@4:32 ident:b@4:33 .@4:34 \\@4:36 ident:e@4:37 .@4:38 ind@4:40 "
        "(@4:43 ident:e@4:44 ;@4:45 ident:_@4:47 .@4:48 Nat@4:50 ;@4:53 num:1@4:55 ;@4:56 "
        "ident:p@4:58 ident:r@4:60 .@4:61 ident:mul@4:63 ident:b@4:67 ident:r@4:69 )@4:70 "
        "eof:@5:1"
    ),
    "crossval": (
        "postulate@2:1 ident:A@2:11 postulate@3:1 ident:B@3:11 (@3:13 ident:x@3:14 :@3:16 "
        "ident:A@3:18 )@3:19 postulate@4:1 ident:f@4:11 :@4:13 (@4:15 ident:x@4:16 :@4:18 "
        "ident:A@4:20 )@4:21 ->@4:23 ident:B@4:26 ident:x@4:28 postulate@5:1 ident:C@5:11 "
        "(@5:13 ident:n@5:14 :@5:16 Nat@5:18 )@5:21 postulate@6:1 ident:c0@6:11 :@6:14 "
        "ident:C@6:16 zero@6:18 postulate@7:1 ident:h@7:11 :@7:13 (@7:15 ident:n@7:16 :@7:18 "
        "Nat@7:20 )@7:23 ->@7:25 ident:C@7:28 ident:n@7:30 def@8:1 ident:add@8:5 :@8:9 "
        "Nat@8:11 ->@8:15 Nat@8:18 ->@8:22 Nat@8:25 :=@8:29 \\@8:32 ident:m@8:33 .@8:34 \\@8:36 "
        "ident:n@8:37 .@8:38 ind@8:40 (@8:43 ident:m@8:44 ;@8:45 ident:_@8:47 .@8:48 Nat@8:50 "
        ";@8:53 ident:n@8:55 ;@8:56 ident:p@8:58 ident:r@8:60 .@8:61 succ@8:63 ident:r@8:68 "
        ")@8:69 def@9:1 ident:twice@9:5 :@9:11 Nat@9:13 ->@9:17 Nat@9:20 :=@9:24 \\@9:27 "
        "ident:n@9:28 .@9:29 ident:add@9:31 ident:n@9:35 ident:n@9:37 eof:@10:1"
    ),
    "chain 3": (
        "def@1:1 ident:d0@1:5 :@1:8 Nat@1:10 ->@1:14 Nat@1:17 :=@1:21 \\@1:24 ident:n@1:25 "
        ".@1:26 succ@1:28 ident:n@1:33 def@2:1 ident:d1@2:5 :@2:8 Nat@2:10 ->@2:14 Nat@2:17 "
        ":=@2:21 \\@2:24 ident:n@2:25 .@2:26 ident:d0@2:28 (@2:31 ident:d0@2:32 ident:n@2:35 "
        ")@2:36 def@3:1 ident:d2@3:5 :@3:8 Nat@3:10 ->@3:14 Nat@3:17 :=@3:21 \\@3:24 "
        "ident:n@3:25 .@3:26 ident:d1@3:28 (@3:31 ident:d1@3:32 ident:n@3:35 )@3:36 def@4:1 "
        "ident:d3@4:5 :@4:8 Nat@4:10 ->@4:14 Nat@4:17 :=@4:21 \\@4:24 ident:n@4:25 .@4:26 "
        "ident:d2@4:28 (@4:31 ident:d2@4:32 ident:n@4:35 )@4:36 eof:@5:1"
    ),
    "tabs": "def@1:1 ident:x@1:5 :@1:7 Nat@1:10 :=@1:14 num:12@1:17 eof:@1:19",
    "crlf": (
        "postulate@1:1 ident:A@1:11 def@2:1 ident:x@2:5 :@2:7 Nat@2:9 :=@2:13 num:2@2:16 "
        "eof:@3:1"
    ),
    "primes": (
        "\\@1:1 ident:x'@1:2 .@1:4 \\@1:6 ident:x''@1:7 .@1:10 ident:x'@1:12 ident:x''_1@1:15 "
        "eof:@1:20"
    ),
    "comment": "def@1:1 ident:x@1:5 :@1:7 Nat@1:9 :=@1:13 zero@1:16 eof:@2:1",
    "comment eof": "def@1:1 ident:x@1:5 :@1:7 Nat@1:9 :=@1:13 eof:@1:26",
    "keywords": (
        "ident:postulated@1:1 ident:defx@1:12 ident:Natural@1:17 ident:zero1@1:25 "
        "ident:succ'@1:31 ident:fun_@1:37 ident:_ind@1:42 ind@1:47 (@1:50 ident:succzero@1:51 "
        ")@1:59 eof:@1:60"
    ),
}


def _render(tokens) -> str:
    return " ".join(
        (text if kind == text else f"{kind}:{text}") + f"@{line}:{col}" for kind, text, line, col in zip(*tokens)
    )


@pytest.mark.parametrize("name", TOKENIZED)
def test_tokenize_pinned(name):
    # at end of input after a comment, the eof token stands at the end of
    # the input, not where the comment begins
    assert _render(tokenize(TOKENIZED[name])) == PINNED_TOKENS[name]


@pytest.mark.parametrize(
    ("source", "col"),
    [("\u00bdx", 1), ("1\u00b2", 2), ("x \u00b2", 3), ("a\fb", 2), ("\ufeffdef", 1), ("a\x00", 2)],
)
def test_tokenize_rejects_a_character_that_starts_no_token(source, col):
    # a numeric character that is not a decimal digit starts no numeral and no identifier
    with pytest.raises(ParseError, match="unexpected character") as e:
        tokenize(source)
    assert (e.value.line, e.value.col) == (1, col)


# The differential test of the front end against the reference front end,
# tests/parser_reference.py's parser and tests/inline_reference.py's
# elaborator: token soups, and the preludes and a chain with a few spans
# replaced, read as a file, an expression and a type. The reference ends
# lines at "\n" only, so it reads the source with "\r\n" and "\r" rewritten
# to "\n".
LONG = "9" * 4301  # past int()'s limit
SOUP = [
    "postulate", "def", "Nat", "zero", "succ", "ind", "fun", ":=", "->", "=>", "(", ")", ":", ";",
    ".", "\\", "_", "A", "B", "x", "x'", "f2", "0", "12", LONG, "\u00b2", "\u00bd", "\f", "\ufeff",
    "\x85", "'", "-->", "-", ">", "=", "\r", "-- note", " ", " ", "\t", "\n", "\n",
]
CHAIN_8 = "".join(
    ["def d0 : Nat -> Nat := \\n. succ n\n"]
    + [f"def d{j} : Nat -> Nat := \\n. d{j - 1} (d{j - 1} n)\n" for j in range(1, 9)]
)


@st.composite
def _mutated(draw):
    source = draw(st.sampled_from([ARITH_SOURCE, CROSSVAL_SOURCE, CHAIN_8]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(source)))
        j = draw(st.integers(i, min(len(source), i + 6)))
        source = source[:i] + draw(st.sampled_from(SOUP + [""])) + source[j:]
    return source


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KernelError as e:
        return type(e), str(e), e.line, e.col


def _unfold_decl(sig, d):
    match d:
        case Define(name, ty, body):
            return Define(name, unfold(sig, ty), unfold(sig, body))
        case PostulateTm(name, params, result):
            return PostulateTm(name, tuple(unfold(sig, p) for p in params), unfold(sig, result))
    return PostulateTy(d.name, tuple(unfold(sig, p) for p in d.params))


def _unfolded_file(source):
    sig = elaborate(parse(source))
    return tuple(_unfold_decl(sig, d) for d in sig.decls)


def _reference_file(source):
    return inline_reference.elaborate(parser_reference.parse(source)).decls


def _unchecked(sig, decl):
    """``check.declare`` without the type checking, which reports an inlined
    body's errors in other words than a body that names definitions."""
    if sig.find(Declaration, decl.name) is not None:
        raise DuplicateName(f"duplicate name '{decl.name}'")
    return sig.extend(decl)


# Expressions and types elaborate over CROSSVAL, under no names, under
# fresh ones, and under names that shadow a definition and a type constant.
NAMES = [(), ("v", "w"), ("add", "C")]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(SOUP), max_size=30).map("".join), _mutated()))
@example("(f) x (y) z")  # an application's place is its head's, inside parentheses
@example("fun x => ind(x; n. B (n) -> (y : A) -> C y; zero; p r. succ succ (succ r)) -- c\r\n")
@example("postulate B (x : A) (y : B x)\ndef d : (x : Nat) -> Nat := \\y. y")
@example("succ (succ (zero) x)")  # nested ``succ (`` levels, which parse in a loop
@example("succ (\\x. x)")
@example("succ (succ (succ (a)) b) c")
@example("succ (succ (zero)")
@example("succ ( succ")
@example("(\\x. nope) zilch")  # the argument before the head: 'zilch'
@example("succ nope zilch")
@example("((nope v) zilch) w")  # arguments first, through parentheses: 'zilch' under ("v", "w")
@example("succ (succ (f nope) zilch) c0")  # a level of nested successors is one head: 'zilch'
@example("Nat -> B _")  # the arrow's "_" binder is in scope
# ill-typed: checked, an inlined body's error reads otherwise, so files are compared unchecked
@example("def add : Nat -> Nat -> Nat := \\m. \\n. n\ndef g : Nat -> Nat := \\m. ind(m; _. Nat; m; p r. add r)")
def test_parser_agrees_with_the_reference(source):
    lf = re.sub(r"\r\n?", "\n", source)
    with mock.patch.object(surface, "declare", _unchecked), mock.patch.object(inline_reference, "declare", _unchecked):
        assert _outcome(_unfolded_file, source) == _outcome(_reference_file, lf)
    sig, inlined = _SIGS["crossval"]
    for names in NAMES:
        for ours, ref, parse_ours, parse_ref in [
            (elab_tm, inline_reference.elab_tm, parse_expression, parser_reference.parse_expression),
            (elab_ty, inline_reference.elab_ty, parse_type, parser_reference.parse_type),
        ]:
            got = _outcome(lambda: unfold(sig, ours(sig, names, parse_ours(source))))
            assert got == _outcome(lambda: ref(inlined, names, parse_ref(lf))), names


INLINED = r"""
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def two : Nat := 2
def app : (Nat -> Nat) -> Nat -> Nat := \f. \x. f x
def id2 : (Nat -> Nat) -> Nat -> Nat := \f. f
def k : Nat -> (Nat -> Nat) -> Nat -> Nat := \a. \f. f
"""


def _inline_sequential(sig, names, source):
    """A definition's unfolded body applied to its unfolded arguments, one
    ``subst1`` per argument."""
    head, args = elab_tm(sig, names, parse_expression(source)), []
    while isinstance(head, App):
        head, args = head.fn, [head.arg, *args]
    t = unfold(sig, sig.find(Define, head.name).body)
    for a in (unfold(sig, a) for a in args):
        t = subst1(t.body, a) if isinstance(t, Lam) else App(t, a)
    return t


@pytest.mark.parametrize(
    ("names", "source", "expected"),
    [
        ((), r"app (\y. succ y) 3", App(Lam(Succ(1, Var(0))), numeral(3))),  # stays a redex
        ((), r"id2 (\y. succ y) 3", numeral(4)),  # contracts through the lambda argument
        ((), "add 2", None),  # under-applied
        ((), "two", numeral(2)),  # a body that is no lambda
        ((), "two 3", App(numeral(2), numeral(3))),
        (("z",), r"k z (\y. add y z) 3", None),  # arguments with free variables
        (("q",), "id2 (add q) q", None),
    ],
)
def test_definition_inlining_matches_the_sequential_rule(names, source, expected):
    # the oracle unfolds a definition applied to arguments by the rule
    # elaboration used to inline it with
    sig = elaborate(parse(INLINED))
    t = unfold(sig, elab_tm(sig, names, parse_expression(source)))
    assert t == _inline_sequential(sig, names, source)
    assert expected is None or t == expected
    if names:  # and under the binder written out
        (z,) = names
        assert unfold(sig, elab_tm(sig, (), parse_expression(f"\\{z}. {source}"))) == Lam(t)


# The differential test of the oracle's unfolding against the inlining
# elaborator of tests/inline_reference.py: the declarations of each source,
# then random expressions over its names, well typed or not.
UNFOLDED = {"arith": ARITH_SOURCE, "crossval": CROSSVAL_SOURCE, "inlined": INLINED, "chain 8": CHAIN_8}


@pytest.mark.parametrize("name", UNFOLDED)
def test_unfolded_declarations_are_the_inlined_ones(name):
    assert _unfolded_file(UNFOLDED[name]) == _reference_file(UNFOLDED[name])


@functools.cache
def _terms(names: tuple, bound: tuple, depth: int):
    """Surface terms over ``names`` and the variables ``bound``."""
    atom = st.one_of(st.sampled_from(names + bound), st.integers(0, 3).map(str))
    if depth == 0:
        return atom
    sub = _terms(names, bound, depth - 1)
    under = lambda *more: _terms(names, bound + more, depth - 1)  # noqa: E731
    motive = st.one_of(
        st.sampled_from(["Nat", "Nat -> Nat"]),
        under("m").map(lambda t: f"C ({t})" if "C" in names else "Nat"),
    )
    return st.one_of(
        atom,
        st.lists(sub, min_size=2, max_size=4).map(lambda ts: " ".join(f"({t})" for t in ts)),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} {p[1]})"),  # a head with its own arguments
        under("x").map(lambda t: f"\\x. {t}"),
        st.tuples(sub, motive, sub, under("p", "r")).map(lambda p: "ind({}; m. {}; {}; p r. {})".format(*p)),
    )


@st.composite
def _unfolding_cases(draw):
    source = draw(st.sampled_from(["arith", "crossval", "inlined"]))
    names = tuple(d.name for d, _, _ in parse(UNFOLDED[source]))
    return source, draw(_terms(names, ("v", "w"), 3))


def _elaborated(elab, sig, text, parse_fn=parse_expression):
    return _outcome(lambda: elab(sig, ("v", "w"), parse_fn(text)))


_SIGS = {
    name: (elaborate(parse(src)), inline_reference.elaborate(parser_reference.parse(src)))
    for name, src in UNFOLDED.items()
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_unfolding_cases())
@example(("arith", "(mul 2) ((add) v)"))
@example(("crossval", "ind(twice v; m. C (twice m); c0; p r. h (add (succ p) 1))"))
@example(("inlined", "k v (add w) (app (id2 (add 1)) two)"))
@example(("arith", "nope (zilch zero)"))  # arguments elaborate before their head: 'zilch' at 1:7
@example(("arith", "ind(nope; _. Nat; zilch; p r. r)"))  # fields in order: 'nope'
@example(("crossval", "ind(v; m. C zilch zilch; c0; p r. r)"))  # the arity before the arguments
def test_unfolding_matches_the_inlining_elaborator(case):
    # a term naming definitions, unfolded, is what inlining elaborated;
    # with the same error where elaboration fails
    source, text = case
    sig, inlined = _SIGS[source]
    got = _elaborated(lambda *a: unfold(sig, elab_tm(*a)), sig, text)
    assert got == _elaborated(inline_reference.elab_tm, inlined, text, parser_reference.parse_expression)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_unfolding_cases())
@example(("arith", "(mul 2) ((add) v)"))
@example(("crossval", "ind(twice v; m. C (twice m); c0; p r. h (add (succ p) 1))"))
@example(("inlined", "k v (add w) (app (id2 (add 1)) two)"))
def test_unfold_returns_the_term_itself_exactly_when_it_names_no_constant(case):
    source, text = case
    sig = _SIGS[source][0]
    t = _elaborated(elab_tm, sig, text)
    if isinstance(t, tuple):  # elaboration failed
        return
    # a postulate's head stays: only a definition unfolds
    assert (unfold(sig, t) is t) == (not any(sig.find(Define, n) for n in const_names(t)))


@pytest.mark.parametrize(
    ("source", "parse_fn", "elab"),
    [
        ("succ (" * 300 + "zero" + ")" * 300, parse_expression, elab_tm),
        ("succ (" * 10_000 + "zero" + ")" * 10_000, parse_expression, elab_tm),
        ("(\\x. " * 300 + "x" + ")" * 300, parse_expression, elab_tm),
        ("\\x. " * 900 + "x", parse_expression, elab_tm),
        ("Nat -> " * 900 + "Nat", parse_type, elab_ty),
        ("(x : Nat) -> " * 900 + "Nat", parse_type, elab_ty),
        ("f (" * 400 + "zero" + ")" * 400, parse_expression, elab_tm),
    ],
    ids=[
        "300 nested succ",
        "10000 nested succ",
        "300 nested lambdas in parentheses",
        "900 lambdas",
        "900 arrows",
        "900 dependent arrows",
        "400 nested arguments",
    ],
)
def test_deeply_nested_source_parses_and_elaborates(source, parse_fn, elab):
    # nested ``succ (`` parses in a loop, at any depth; the recursive
    # descent's limits at the default recursion limit are about 330 lambdas
    # in parentheses, 495 nested arguments, and 990 lambdas or arrows
    sig = elaborate(parse("postulate f : Nat -> Nat"))
    t = elab(sig, (), parse_fn(source))
    assert t is not None
    if source.startswith("succ"):
        assert t == numeral(source.count("succ"))

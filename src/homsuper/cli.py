"""Command-line front end.

Commands: validate, check, twist, derive, commutator, plus, corpus,
verify-paper.  Exit codes: 0 when every requested check holds, 1 when any
check fails (reports are still emitted), 2 on input or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import corpus
from .coeff import CoeffError
from .identities import CHECKERS, CheckError, commutator_algebra, plus_algebra, run_checker
from .io import (
    AlgebraDocument,
    ParseError,
    decode_document,
    parse_algebra_file,
    parse_binding,
    serialize_algebra_document,
    serialize_report,
)
from .maps import MapError, derived, is_even, is_weak_morphism, yau_twist
from .report import IdentityReport
from .superalg import (
    AlgebraError,
    HomSuperAlgebra,
    validate,
)
from .suite import exit_code as suite_exit_code
from .suite import render_rows, run_suite


class CliError(Exception):
    pass


def _parse_set(values: Optional[List[str]]) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for item in values or []:
        try:
            parse_binding(item, 1, 1, out)
        except ParseError as exc:
            raise CliError(f"--set: {exc.msg}") from None
    return out


def _load_instance(args) -> corpus.BuiltInstance:
    bindings = _parse_set(getattr(args, "set", None))
    variant = getattr(args, "map", None) or "base"
    if args.corpus and args.file:
        raise CliError("give either --corpus or --file, not both")
    if args.corpus:
        return corpus.build(args.corpus, variant, bindings)
    if args.file:
        with open(args.file, "rb") as fh:
            doc = parse_algebra_file(decode_document(fh.read()))
        return corpus.build_from_document(doc, variant, bindings, entry_id=args.file)
    raise CliError("one of --corpus or --file is required")


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report_text(
    reports: List[IdentityReport], inst: corpus.BuiltInstance, as_json: bool
) -> str:
    F, basis = inst.hom.field, inst.base.basis
    lines = [serialize_report(r, F, basis) for r in reports]
    if as_json:
        return json.dumps([json.loads(line) for line in lines], indent=2)
    return "\n".join(lines)


def _document_from(name: str, H: HomSuperAlgebra) -> AlgebraDocument:
    A = H.algebra
    basis = A.basis
    even = tuple(n for n, p in zip(basis.names, basis.parities) if p == 0)
    odd = tuple(n for n, p in zip(basis.names, basis.parities) if p == 1)
    maps = {}
    twist = None
    if not H.alpha.is_identity():
        maps["twist"] = H.alpha
        twist = "twist"
    return AlgebraDocument(name, A.field, even, odd, A.table, maps, twist, ())


def cmd_validate(args) -> int:
    inst = _load_instance(args)
    reports = [validate(inst.base)]
    # evenness / endomorphism reports for the named map of this variant
    if inst.map_used is not None:
        reports.append(is_even(inst.map_used, inst.base.basis))
        reports.append(is_weak_morphism(inst.base, inst.base, inst.map_used))
    _emit(_report_text(reports, inst, args.json), args.out)
    return 0 if all(r.holds for r in reports) else 1


def cmd_check(args) -> int:
    inst = _load_instance(args)
    names = args.identity or []
    if not names:
        raise CliError("--identity is required (repeatable)")
    for n in names:
        if n not in CHECKERS:
            raise CliError(f"unknown checker {n!r}; known: {', '.join(CHECKERS)}")
    reports = [
        run_checker(n, inst.hom, max_counterexamples=args.max_counterexamples)
        for n in names
    ]
    _emit(_report_text(reports, inst, args.json), args.out)
    return 0 if all(r.holds for r in reports) else 1


def _construction(args, kind: str) -> int:
    if kind == "twist":
        # --map names the twisting endomorphism; the construction starts
        # from the base variant
        map_name = args.map
        if not map_name:
            raise CliError("twist needs --map NAME")
        args.map = None
    inst = _load_instance(args)
    if kind == "twist":
        beta_inst = corpus.build_from_document(
            inst.doc, map_name, inst.bindings, entry_id=inst.entry
        )
        if beta_inst.map_used is None:
            raise CliError(f"twist needs --map NAME of a map, got {map_name!r}")
        H = yau_twist(inst.hom, beta_inst.map_used)
        name = f"{inst.doc.name}-{map_name}"
    elif kind == "derive":
        H = derived(inst.hom, args.n)
        name = f"{inst.doc.name}-derived-{args.n}"
    elif kind == "commutator":
        H = commutator_algebra(inst.hom)
        name = f"{inst.doc.name}-minus"
    else:
        H = plus_algebra(inst.hom)
        name = f"{inst.doc.name}-plus"
    _emit(serialize_algebra_document(_document_from(name, H)), args.out)
    return 0


def cmd_corpus(args) -> int:
    lines = []
    for entry_id in corpus.ENTRY_IDS:
        doc = corpus.load_document(entry_id)
        params = ", ".join(doc.field.spec.params) or "-"
        lines.append(
            f"{entry_id:<14} dim {len(doc.even) + len(doc.odd)}  field {doc.field.spec.base_label():<6}"
            f" params: {params:<12} variants: {', '.join(corpus.variant_names(entry_id))}"
        )
        for c in doc.claims:
            lines.append(f"    {c.key:<28} {c.kind:<8} {c.target}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify_paper(args) -> int:
    rows = run_suite()
    _emit(render_rows(rows, as_json=args.json), args.out)
    return suite_exit_code(rows)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="homsuper",
        description="Exact checker for twisted Z2-graded algebra identities.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--corpus", help="bundled entry id")
        p.add_argument("--file", help="path to a .salg definition file")
        p.add_argument(
            "--map",
            help="variant: a map name, '<map>-untwisted', or omit for base",
        )
        p.add_argument(
            "--set", action="append", metavar="name=value",
            help="bind a parameter (repeatable)",
        )
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("validate", help="grading and map checks")
    add_source(p)
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", help="run identity checkers")
    add_source(p)
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument(
        "--identity", action="append",
        help=f"checker name (repeatable): {', '.join(CHECKERS)}",
    )
    p.add_argument("--max-counterexamples", type=int, default=16)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("twist", help="compose the product with an endomorphism")
    add_source(p)
    p.set_defaults(fn=lambda a: _construction(a, "twist"))

    p = sub.add_parser("derive", help="n-th derived algebra")
    add_source(p)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=lambda a: _construction(a, "derive"))

    p = sub.add_parser("commutator", help="super-commutator algebra")
    add_source(p)
    p.set_defaults(fn=lambda a: _construction(a, "commutator"))

    p = sub.add_parser("plus", help="plus (symmetrised) algebra")
    add_source(p)
    p.set_defaults(fn=lambda a: _construction(a, "plus"))

    p = sub.add_parser("corpus", help="list bundled entries and claims")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("verify-paper", help="replay every bundled claim")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        CliError,
        ParseError,
        CoeffError,
        AlgebraError,
        MapError,
        CheckError,
        corpus.CorpusError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

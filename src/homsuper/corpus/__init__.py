"""Bundled algebra definitions and their published claims.

Each entry ships as a `.salg` file next to this module; the programmatic
builders parse those files, so the CLI file path and the corpus path exercise
exactly the same data.  `build` instantiates an entry at (possibly partial)
parameter bindings, validates the entry's constraints, and returns one of its
variants:

  * ``base``              -- the table as stated, with the document's twist
                             (identity when none is declared);
  * ``<map>``             -- product composed with the named map, twist
                             map . old twist (the printed twisted algebras);
  * ``<map>-untwisted``   -- same composed product with the identity twist
                             (the "classical" reading of a twisted table).

Twisted variants are materialised by direct table composition, not through
the guarded twist operation: one bundled map (kaplansky-k3) is *not* a weak
endomorphism even though its source says it is, and reproducing the printed
algebra is exactly the point.  The guarded path stays available through
`maps.yau_twist`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, Mapping, Optional, Tuple

from ..coeff import FieldSpec, FractionField, Scalar, field_for
from ..io import (
    AlgebraDocument,
    ClaimSpec,
    parse_algebra_file,
    parse_expression,
    parse_vector_expr,
)
from ..maps import compose, compose_product
from ..superalg import (
    EvenLinearMap,
    HomSuperAlgebra,
    SuperAlgebra,
    hom,
)


class CorpusError(Exception):
    pass


class UnknownEntryError(CorpusError):
    pass


class UnknownVariantError(CorpusError):
    pass


class ConstraintError(CorpusError):
    pass


ENTRY_IDS: Tuple[str, ...] = (
    "m3-3-1",
    "b42",
    "k3-flexible",
    "kaplansky-k3",
    "dt-jordan",
    "dt-flexible",
)

_DOC_CACHE: Dict[str, AlgebraDocument] = {}


def entry_text(entry_id: str) -> str:
    if entry_id not in ENTRY_IDS:
        raise UnknownEntryError(
            f"unknown corpus entry {entry_id!r}; known: {', '.join(ENTRY_IDS)}"
        )
    return (
        resources.files(__package__).joinpath(f"{entry_id}.salg").read_text("utf-8")
    )


def load_document(entry_id: str) -> AlgebraDocument:
    if entry_id not in _DOC_CACHE:
        _DOC_CACHE[entry_id] = parse_algebra_file(entry_text(entry_id))
    return _DOC_CACHE[entry_id]


def variant_names(entry_id: str) -> Tuple[str, ...]:
    return document_variants(load_document(entry_id))


@dataclass
class BuiltInstance:
    entry: str
    variant: str
    bindings: Dict[str, Fraction]
    doc: AlgebraDocument
    base: SuperAlgebra  # the (instantiated) stated table
    hom: HomSuperAlgebra  # the requested variant
    map_used: Optional[EvenLinearMap]  # the instantiated named map, if any


def _substituter(doc: AlgebraDocument, bindings: Mapping[str, Fraction]):
    full = doc.field
    if not isinstance(full, FractionField) or not bindings:
        if bindings and not isinstance(full, FractionField):
            raise ConstraintError("entry has no parameters to bind")
        return full, (lambda v: v)
    unknown = [k for k in bindings if k not in full.spec.params]
    if unknown:
        raise ConstraintError(f"unknown parameters: {', '.join(sorted(unknown))}")
    remaining = tuple(p for p in full.spec.params if p not in bindings)
    target = field_for(FieldSpec(full.spec.base, full.spec.p, remaining))
    frs = {k: Fraction(v) for k, v in bindings.items()}
    # a zero payload substitutes to zero; taking it at once keeps unstated
    # products cheap
    return target, (lambda v: full.substitute(v, frs, target) if v.num else target.zero)


def document_variants(doc: AlgebraDocument) -> Tuple[str, ...]:
    out = ["base"]
    for m in doc.maps:
        out.append(m)
        out.append(f"{m}-untwisted")
    return tuple(out)


def build(
    entry_id: str,
    variant: str = "base",
    bindings: Optional[Mapping[str, Fraction]] = None,
) -> BuiltInstance:
    return build_from_document(
        load_document(entry_id), variant, bindings, entry_id=entry_id
    )


def build_from_document(
    doc: AlgebraDocument,
    variant: str = "base",
    bindings: Optional[Mapping[str, Fraction]] = None,
    entry_id: str = "<document>",
) -> BuiltInstance:
    bindings = {k: Fraction(v) for k, v in (bindings or {}).items()}
    if variant not in document_variants(doc):
        raise UnknownVariantError(f"{entry_id} has no variant {variant!r}")

    target, down = _substituter(doc, bindings)

    # constraints, evaluated after binding
    at = ", ".join(f"{k}={v}" for k, v in bindings.items()) or "symbolic parameters"
    for expr in doc.zero:
        val = down(parse_expression(expr, doc.field).v)
        if not target.is_zero(val):
            raise ConstraintError(f"{entry_id}: constraint {expr} = 0 violated at {at}")
    for expr in doc.nonzero:
        val = down(parse_expression(expr, doc.field).v)
        if target.is_zero(val):
            raise ConstraintError(f"{entry_id}: constraint {expr} != 0 violated at {at}")

    table = [[tuple(map(down, vec)) for vec in row] for row in doc.table]
    base = SuperAlgebra(doc.basis, target, table)

    inst_maps = {
        name: EvenLinearMap(target, [tuple(down(v) for v in col) for col in m.cols])
        for name, m in doc.maps.items()
    }
    base_alpha = (
        inst_maps[doc.twist]
        if doc.twist
        else EvenLinearMap.identity(target, len(table))
    )

    if variant == "base":
        return BuiltInstance(entry_id, variant, bindings, doc, base, hom(base, base_alpha), None)
    map_name = variant[: -len("-untwisted")] if variant.endswith("-untwisted") else variant
    beta = inst_maps[map_name]
    twisted = compose_product(base, beta, f"variant {variant}")
    if variant.endswith("-untwisted"):
        H = hom(twisted)  # identity twist
    else:
        H = hom(twisted, compose(beta, base_alpha, f"variant {variant}"))
    return BuiltInstance(entry_id, variant, bindings, doc, base, H, beta)


def claims(entry_id: str) -> Tuple[ClaimSpec, ...]:
    return load_document(entry_id).claims


def claimed_value(entry_id: str, key: str) -> Tuple[Scalar, ...]:
    """The published expression of a value claim, parsed over the entry's
    full symbolic field.  Tagged data, never used as ground truth."""
    doc = load_document(entry_id)
    for c in doc.claims:
        if c.key == key:
            if c.kind == "check":
                raise CorpusError(f"{key} is a verdict claim, not a value")
            vec = parse_vector_expr(c.expected, doc.field, doc.basis)
            return tuple(Scalar(doc.field, v) for v in vec)
    raise CorpusError(f"{entry_id} has no claim {key!r}")


def suggested_bindings(entry_id: str) -> Dict[str, Fraction]:
    return dict(load_document(entry_id).suggest)

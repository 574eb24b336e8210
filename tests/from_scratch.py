"""From-scratch reference versions of the classification and the closure.

`classify` pairs every member of every class with every superclass member,
class by class and ancestor by ancestor, and derives the illegal-override
diagnostics from those pairings. `pulled_closure` runs the fixed point over
every member of the superclass's flattened view. The library does less
work for the same results: it looks members up in an index of same-named
ancestors and builds the pairings only when they are read, and it carries
each view's pulled part of the fixed point down to the next class. The
oracle tests demand exact agreement.
"""

from __future__ import annotations

from flatjava.errors import (
    ILLEGAL_OVERRIDE_FINAL,
    ILLEGAL_OVERRIDE_STATIC,
    PACKAGE_VISIBILITY_DIVERGENCE,
    Diagnostic,
)
from flatjava.model import ATTRIBUTE, CTOR, METHOD, OverrideRelation, override_legality
from flatjava.resolver import CALL


def classify(model):
    """(overrides, diagnostics) of an unclassified model."""
    overrides, diagnostics = [], []
    for name in model.order:
        info = model.classes[name]
        for sup_info in model.superclass_chain(name):
            for attr in info.attributes.values():
                for other in sup_info.attributes.values():
                    if other.name == attr.name:
                        overrides.append(OverrideRelation(
                            attr, other, "attribute-override", override_legality(attr, other)
                        ))
            for method in info.methods.values():
                for other in sup_info.methods.values():
                    if other.signature == method.signature:
                        overrides.append(OverrideRelation(
                            method, other, "method-override", override_legality(method, other)
                        ))

    for relation in overrides:
        sub, sup = relation.sub, relation.sup
        if relation.legality == "illegal-static-mismatch":
            diagnostics.append(Diagnostic(
                ILLEGAL_OVERRIDE_STATIC,
                f"{sub.owner}.{sub.signature} and {sup.owner}.{sup.signature} differ in "
                "staticness; treated as non-overriding",
                sub.owner,
                sub.span,
            ))
        elif relation.legality == "illegal-final":
            diagnostics.append(Diagnostic(
                ILLEGAL_OVERRIDE_FINAL,
                f"{sup.owner}.{sup.signature} is final and cannot be overridden by "
                f"{sub.owner}; treated as non-overriding",
                sub.owner,
                sub.span,
            ))

    for name in model.order:
        info = model.classes[name]
        for sup_info in model.superclass_chain(name):
            if sup_info.package == info.package:
                continue
            for member in [*sup_info.attributes.values(), *sup_info.methods.values()]:
                if member.visibility == "package":
                    diagnostics.append(Diagnostic(
                        PACKAGE_VISIBILITY_DIVERGENCE,
                        f"{member.owner}.{member.signature} has package visibility but "
                        f"{info.name} is in a different package; treating it as visible anyway",
                        info.name,
                        member.span,
                    ))
    return overrides, diagnostics


def pulled_closure(fsuper):
    """(pulled keys, accessed attribute names) over every member of fsuper."""
    members = {(m.kind, m.signature): m for m in fsuper.members}
    pulled = {key for key, m in members.items() if m.kind != CTOR and m.visible}
    resolutions = fsuper.resolution.members
    accessed = set()
    work = list(pulled)
    while work:
        source = members[work.pop()]
        for site in resolutions[id(source.decl)].sites.values():
            if site.to_class is not None and site.to_class != fsuper.name:
                continue
            if site.kind == CALL:
                target = (METHOD, site.to_member)
            else:
                target = (ATTRIBUTE, site.to_member)
                accessed.add(site.to_member)
            if target in members and target not in pulled:
                pulled.add(target)
                work.append(target)
    return pulled, accessed

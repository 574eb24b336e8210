"""From-scratch reference versions of the classification, the closure, the fates and the metrics.

`classify` pairs every member of every class with every superclass member,
class by class and ancestor by ancestor, and derives the illegal-override
diagnostics from those pairings. `pulled_closure` runs the fixed point over
every member of the superclass's flattened view. `flatten_against_super`
decides the fate of every member of that view through the rule table, and
names every pulled one, before the library's `rewrite_references` takes
each of them. `rewrite_body` rewrites an own or a pulled body by visiting
every statement and expression in it, whatever its references.
`measure` sizes a view from its whole emitted text and collects each
method's use set from every site. The library does less work for the same
results: it looks members up in an index of same-named ancestors and builds
the pairings only when they are read, it carries each view's pulled part of
the fixed point, and the fates of its pulled members, down to the next
class, it walks a body only when a reference in it changes and then only
along the paths to those references, and it measures a view from the member
parts it shares with its superclass's view, counting lines from statement
shape. The oracle tests demand exact agreement.
"""

from __future__ import annotations

from flatjava import flattener, tree
from flatjava.emitter import emit
from flatjava.errors import (
    ANOMALY_MEMBER,
    FORCED_RENAME,
    ILLEGAL_OVERRIDE_FINAL,
    ILLEGAL_OVERRIDE_STATIC,
    PACKAGE_VISIBILITY_DIVERGENCE,
    Diagnostic,
)
from flatjava.flattener import (
    DROP,
    DROP_ANOMALY,
    PULL_DOWN,
    PULL_DOWN_RENAMED,
    RULE_CTOR,
    MemberFate,
    _final_signature,
    rename,
)
from flatjava.model import ATTRIBUTE, CTOR, METHOD, OverrideRelation, override_legality
from flatjava.metrics import MetricsRecord, lcom_values
from flatjava.resolver import CALL, LOCAL_BASES, READ, WRITE, Site

from whole_view import Whole


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
                sub.decl.span,
            ))
        elif relation.legality == "illegal-final":
            diagnostics.append(Diagnostic(
                ILLEGAL_OVERRIDE_FINAL,
                f"{sup.owner}.{sup.signature} is final and cannot be overridden by "
                f"{sub.owner}; treated as non-overriding",
                sub.owner,
                sub.decl.span,
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
                        member.decl.span,
                    ))
    return overrides, diagnostics


def pulled_closure(fsuper):
    """(pulled keys, accessed attribute names) over every member of fsuper."""
    view = Whole(fsuper)
    members = {(m.kind, m.signature): m for m in view.members}
    pulled = {key for key, m in members.items() if m.kind != CTOR and m.visible}
    resolutions = {
        (m.kind, m.signature): r for m, r in zip(view.members, view.resolution.members)
    }
    accessed = set()
    work = list(pulled)
    while work:
        for site in resolutions[work.pop()].sites.values():
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


def flatten_against_super(model, cls, own, fsuper):
    """The flattened view of `cls`, every fate decided against `fsuper`."""
    diagnostics = []
    pulled, accessed = pulled_closure(fsuper)
    fates = [
        flattener._method_fate(cls, m, pulled) if m.kind == METHOD
        else flattener._attribute_fate(cls, m, accessed) if m.kind == ATTRIBUTE
        else MemberFate(m, DROP, RULE_CTOR)
        for m in Whole(fsuper).members
    ]
    inline_inits = flattener._analyze_super_ctors(cls, fsuper, fates, diagnostics)
    for fate in fates:
        if fate.decision == DROP_ANOMALY:
            diagnostics.append(Diagnostic(
                ANOMALY_MEMBER,
                f"{fate.member.owner}.{fate.member.signature} is invisible and "
                f"inaccessible; not pulled down (rule {fate.rule})",
                cls.name,
                fate.member.decl.span,
            ))
    assign_names(cls, fates, diagnostics)
    # No fate is kept from fsuper, so every pulled member is taken again.
    flat = flattener.rewrite_references(model, cls, own, fsuper, fates, None, inline_inits)
    flat.diagnostics[:0] = diagnostics
    return flat


def assign_names(cls, fates, diagnostics):
    """Final names for every pulled fate, in declaration order."""
    taken = {m.name for m in cls.members if m.kind != CTOR}
    # A member pulled without a rename keeps its name, so no rename may take it.
    taken.update(f.member.name for f in fates if f.decision == PULL_DOWN)
    keys = {(m.kind, m.signature) for m in cls.members}
    for fate in fates:
        if not fate.pulls:
            continue
        member = fate.member
        key = (member.kind, member.signature)
        if fate.decision == PULL_DOWN_RENAMED:
            fate.new_name = rename(member.name, member.owner, taken)
        elif key in keys:
            fate.new_name = rename(member.name, member.owner, taken)
            shared = "name" if member.kind == ATTRIBUTE else "signature"
            diagnostics.append(Diagnostic(
                FORCED_RENAME,
                f"{member.owner}.{member.signature} is not a legal override of the "
                f"subclass member but shares its {shared}; pulled as {fate.new_name}",
                cls.name,
                member.decl.span,
            ))
        taken.add(fate.new_name or member.name)
        if fate.new_name:
            key = (member.kind, _final_signature(member, fate.new_name))
        keys.add(key)


class _FullWalk(flattener._Carrier):
    """The rewrite of a body by visiting every statement and expression in
    it, carrying each site as the walk meets its node."""

    def rewrite(self, decl, sites):
        self.sites = sites
        self.carried = {}
        return self.member(decl), self.carried

    def stmt(self, stmt):
        return tree.BodyWalker.stmt(self, stmt)

    def expr(self, e):
        site = self.sites.get(id(e))
        if site is None:
            return tree.map_children(e, self.expr)
        moved = self.move(site)
        if moved is None:
            out, to_member, basis = tree.map_children(e, self.expr), site.to_member, site.basis
        else:
            out, to_member, basis = self.reference(e, site, *moved)
        self.carried[id(out)] = Site(
            site.kind, None if basis in LOCAL_BASES else site.to_class,
            to_member, basis, getattr(out, "name_span", out.span),
        )
        return out


def rewrite_body(rewriter, decl, sites):
    """(member, carried sites, rewrite directives) of a full walk of `decl`
    that moves each reference as `rewriter` does."""
    walker = _FullWalk(rewriter.move, [])
    out, carried = walker.rewrite(decl, sites)
    return out, carried, walker.rewrites


def by_position(decl, carried):
    """`carried`, keyed by where each node sits in `decl` instead of by its
    identity, so that the sites of two walks that built equal nodes compare."""
    positioned = {}
    todo = [((), decl)]
    while todo:
        path, item = todo.pop()
        if isinstance(item, tree.Node):
            if id(item) in carried:
                positioned[path] = carried[id(item)]
            todo.extend((path + (name,), getattr(item, name)) for name in item.__match_args__)
        elif isinstance(item, list):
            todo.extend((path + (i,), x) for i, x in enumerate(item))
    assert len(positioned) == len(carried), "a carried site names no node of the member"
    return positioned


def measure(model, name, view, decl, resolution):
    """The metrics of a view, SLOC counted on its emitted text.

    The library counts the same lines except where a string literal holds a
    character, such as a form feed, that `str.splitlines` breaks a line at.
    """
    fields = [m for m in decl.members if isinstance(m, tree.FieldDecl)]
    methods = [m for m in decl.members if isinstance(m, tree.MethodDecl)]
    attr_names = {f.name for f in fields}
    use_sets = []
    for m, own in zip(decl.members, resolution.members):
        if not isinstance(m, tree.MethodDecl):
            continue
        use_sets.append({
            s.to_member for s in own.sites.values()
            if s.kind in (READ, WRITE) and s.to_class in (None, name) and s.to_member in attr_names
        })
    lcom1, lcom2 = lcom_values(use_sets)
    sloc = sum(1 for line in emit(decl).splitlines() if line.strip())
    referenced = set()
    for f in fields:
        referenced.add(f.decl_type.name)
    for m in methods:
        if m.return_type is not None:
            referenced.add(m.return_type.name)
        for p in m.params:
            referenced.add(p.decl_type.name)
    for m in decl.members:
        if isinstance(m, tree.CtorDecl):
            for p in m.params:
                referenced.add(p.decl_type.name)
    referenced |= resolution.new_types
    referenced |= resolution.receiver_types
    cbo = sum(
        1 for t in referenced
        if t != name and t in model.classes and not model.classes[t].synthetic
    )
    return MetricsRecord(name, view, len(fields), len(methods), sloc, lcom1, lcom2, cbo)

"""A flattened view assembled whole, for the tests that read one.

A `FlattenedClass` keeps only what its level built (`head_members`, each
record with its resolution, `head_fates`, `head_repulled`) and names the
view whose pulled part it ends with (`base`); no command reads a view
whole. The tests that check a view against a from-scratch reference, or
find a member by its position, assemble it here from the heads along the
chain of bases.
"""

from __future__ import annotations

from flatjava import flattener, tree
from flatjava.resolver import ClassResolution
from flatjava.spans import EMPTY_SPAN


class Whole:
    """`flat` whole: its members, their declaration in one class, the
    absolute edges of their resolutions, and every fate of the view."""

    def __init__(self, flat):
        self.view = flat
        self.name = flat.name
        self.members = list(flat.head_members)
        for view in flat.bases():
            self.members += view.head_members[view.own:]
        decls = [m.decl for m in self.members]
        self.decl = tree.ClassDecl(flat.visibility, flat.name, None, decls, EMPTY_SPAN, EMPTY_SPAN)
        self.resolution = ClassResolution(flat.name, self.members)
        self.fates = [*flat.head_fates, *(flat.base.carried_fates() if flat.base else ())]

    @property
    def repulled(self) -> dict[tuple[str, str], flattener.MemberFate]:
        """The fates the view carries down, by their member's (kind, signature)."""
        return {(f.member.kind, f.member.signature): f for f in self.view.carried_fates()}

    @property
    def carried(self) -> set[str] | None:
        """Where the view carries its pulled part down, the attributes its bodies access."""
        return set(flattener._part_index(self.view).accessed) if self.view.carries else None

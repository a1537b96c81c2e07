"""Pass 1 — snapshot coverage.

A snapshotted class writes its layout once, in a static
`transfer(Ar &ar, Self &self)` that both saveState() and loadState()
run (see src/common/snapshot.h). For every class that defines one —
in its header or out of line in the paired .cc — every data member that
can change after construction must be named in the transfer body. This
turns "added a field, forgot the snapshot" from a silent
resume-corruption bug into a CI failure.

`const` members and references cannot change after construction, so
they are exempt without annotation: constructor configuration belongs
in `const` members. Anything else left out of the snapshot (non-owning
wiring installed after construction, state serialized through another
component, caches rebuilt on demand) carries an explicit annotation::

    Type *member = nullptr; // bh-audit: skip(member) -- installed by System

The annotation must name the member and give a reason; it may sit on
the declaration line, the line above it, or anywhere inside the class
body (for members whose exemption is class-wide policy).
"""

from __future__ import annotations

import re

from cxx import SourceTree, Member, token_in
from report import Report

CHECK = "snapshot-coverage"


def _immutable(member: Member) -> bool:
    """A const object, a const pointer, or a reference: fixed at
    construction. Template arguments do not count (vector<const T*>)."""
    top = member.type_text
    while re.search(r"<[^<>]*>", top):
        top = re.sub(r"<[^<>]*>", "", top)
    if "&" in top:
        return True
    if "*" in top:
        return re.search(r"\*\s*const\s*$", top) is not None
    return re.search(r"\bconst\b", top) is not None


def run(tree: SourceTree, report: Report) -> None:
    classes_checked = 0
    members_checked = 0
    for path in tree.paths():
        if path.suffix != ".h":
            continue
        sf = tree.file(path)
        cc = tree.paired_source(path)
        for cls in sf.classes():
            bodies = sf.find_functions("transfer", cls.name)
            if cc is not None:
                bodies.extend(cc.find_functions("transfer", cls.name))
            if not bodies:
                continue
            transfer = "\n".join(b.body_text for b in bodies)
            classes_checked += 1
            cls_range = (sf.line_of(cls.body_start),
                         sf.line_of(cls.body_end))
            for member in cls.members:
                if _immutable(member):
                    continue
                members_checked += 1
                if token_in(member.name, transfer):
                    continue
                skip = sf.skip_for(member.name, line=member.line,
                                   line_range=cls_range)
                if skip is not None:
                    report.note_skip(CHECK, tree.rel(path), skip.line,
                                     member.name, skip.reason)
                    continue
                report.add(
                    CHECK, "member-not-serialized", tree.rel(path),
                    member.line, f"{cls.name}::{member.name}",
                    f"mutable data member is not named in transfer(); "
                    f"transfer it, make it const, or annotate the "
                    f"declaration with "
                    f"'// bh-audit: skip({member.name}) -- <reason>'")
    report.note_stats(CHECK, classes=classes_checked,
                      members=members_checked)

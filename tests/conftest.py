"""Helpers shared by the test modules."""

from contextlib import contextmanager

from dendro import anodyne
from dendro.complexes import _universe_of
from dendro.faces import all_elementary_faces


@contextmanager
def recorded_extension_sets():
    """Wrap ``ExtensionSet.__init__`` inside the block; yields the list of
    every extension set constructed there, in order."""
    out = []
    init = anodyne.ExtensionSet.__init__

    def recorded(es, *args, **kwargs):
        init(es, *args, **kwargs)
        out.append(es)

    anodyne.ExtensionSet.__init__ = recorded
    try:
        yield out
    finally:
        anodyne.ExtensionSet.__init__ = init


def step_faces(cert) -> tuple[list[set], list[set]]:
    """Per step, the keys of the faces it adds (its face and its omitted
    face) and of the faces it needs (every face of its face but the omitted
    one, and every face of the omitted face); worked out from the step
    faces alone, without a replay."""
    universe = _universe_of(cert.ambient)
    added, needed = [], []
    for st in cert.steps:
        face = universe[st.face]
        efs = all_elementary_faces(face)
        omit = next(ef for ef in efs if (ef.kind, ef.at) == (st.omit_kind, st.omit_at))
        added.append({face.key, omit.domain.key})
        need = {ef.domain.key for ef in efs if ef is not omit}
        need |= {ef.domain.key for ef in all_elementary_faces(omit.domain)}
        needed.append(need)
    return added, needed


def independent_swaps(cert) -> list[bool]:
    """At k, whether steps k and k+1 are independent: the faces step k adds
    are disjoint from the faces step k+1 needs."""
    added, needed = step_faces(cert)
    return [not added[k] & needed[k + 1] for k in range(len(added) - 1)]

"""Helpers shared by the test modules."""

from contextlib import contextmanager

from dendro import anodyne


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

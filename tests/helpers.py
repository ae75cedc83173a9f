"""Helpers shared by the flat-IR differential tests."""

from repro.compiler.flatir import FlatFunction, from_nodes


def flat_copy(fn):
    """A buffer-native copy of the object-IR function ``fn``.

    The flat passes take only a :class:`FlatFunction`.  The differentials
    run them on this copy and the object passes on ``fn`` (or a deepcopy),
    then compare dumps, coverage and stats.
    """
    return FlatFunction(from_nodes(fn))

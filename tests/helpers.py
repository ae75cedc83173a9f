"""Test-only helpers: flat copies for the flat-IR differentials, and fakes
that turn off one reuse path of a fuzzer for the parity tests."""

from repro.compiler.flatir import FlatFunction, from_nodes


def flat_copy(fn):
    """A buffer-native copy of the object-IR function ``fn``.

    The flat passes take only a :class:`FlatFunction`.  The differentials
    run them on this copy and the object passes on ``fn`` (or a deepcopy),
    then compare dumps, coverage and stats.
    """
    return FlatFunction(from_nodes(fn))


def full_front_end(fuzzer):
    """Route ``fuzzer``'s front end past the dirty-region path; returns it.

    Every ``cache.front_end_from`` call, the mutators' and the compiler's,
    then front-ends the whole text (still through the cache, so the compile
    session keeps running).  The parity tests run such a fuzzer step for
    step beside a default one: any difference is the dirty-region front
    end's.
    """
    cache = fuzzer.cache

    def front_end_from(text, edits_from=None, *, tracer=None):
        return cache.front_end(text, tracer=tracer)

    cache.front_end_from = front_end_from
    return fuzzer


def keep_everything(fuzzer):
    """Turn off ``fuzzer``'s end-of-step release; returns it.

    The fuzzer then keeps every text it front-ended or compiled in its
    cache, and every record its compiles made in the compile session, up
    to their LRU bounds.  The parity tests run such a fuzzer step for step
    beside a default one: any difference is the release's.
    """
    fuzzer.release_unpooled = lambda texts: None
    return fuzzer

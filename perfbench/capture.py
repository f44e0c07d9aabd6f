"""Constructor capture, shared by the repetition runner and the tracer."""

from __future__ import annotations


def capture(cls, sink: list) -> None:
    """Append every instance of ``cls`` built from now on to ``sink``.

    Wraps ``cls.__init__`` in this process only.  The program builds
    (and drops) its own schedulers, environments and channels, so their
    constructors are the one place every instance can be reached from
    outside.
    """
    original = cls.__init__

    def init(instance, *args, **kwargs):
        original(instance, *args, **kwargs)
        sink.append(instance)

    cls.__init__ = init

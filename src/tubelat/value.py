"""The one immutable base of the package's value classes.

A subclass names its fields as ``__slots__``.  An instance takes them
positionally or by name and refuses assignment.  It equals, and hashes as,
the tuple of its compared fields (all of them, unless the class statement
says ``compare=(...)``), and never equals an instance of another class.  It
prints as ``Name(field=value, ...)``.  The base builds one
``operator.attrgetter`` per class and generates no code, so defining a class
costs microseconds and importing the package pulls in no ``dataclasses``.
The ``View`` mixin makes a value that stands for a lazily built table
compare and hash as that table instead.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        cls._key = attrgetter(*(cls.__slots__ if compare is None else compare))
        # each slot's own setter writes past the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(name) for name in self.__slots__[len(args):] if name in kwargs)
        setters = self._setters
        if kwargs or len(args) != len(setters):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {self.__slots__}")
        for set_field, value in zip(setters, args):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class View:
    """A mixin, before ``Value`` in the bases, for a value that stands for a
    table it builds only when iterated: it equals, and hashes as, the tuple
    of the records that iterating builds, and equals a view of its own class
    and fields without building any."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self) and self._key(other) == self._key(self):
            return True  # the same packing: no record built
        if not isinstance(other, (tuple, type(self))):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

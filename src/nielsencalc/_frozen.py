"""Immutable value classes without dataclasses.

A subclass lists its fields in __slots__ in constructor order (a slot
named with a leading '_' is private state), with defaults and the fields
that == and hash ignore as class keywords.  Frozen gives it a
constructor taking fields by position or keyword, == and hash over _key
(the tuple of compared fields), a dataclass-style repr, replace() and
pickling, and refuses assignment and deletion, compiling nothing per
class.  A subclass writes __init__ only to check or canonicalise its
inputs, then passes the fields to Frozen.__init__ by position.  A class
hashed on every query (SpaceId, a dict key of Database lookups) declares
a _key slot, which Frozen.__init__ fills; for the others _key is
computed when == or hash asks for it.  LoosenessVerdict, which every
self_verdict builds, sets its fields with setfield instead, at half the
cost of the generic constructor.
"""

from operator import attrgetter, itemgetter

setfield = object.__setattr__


class Frozen:
    __slots__ = ()
    _key_from = None    # picks _key out of the fields for a class storing it

    def __init_subclass__(cls, defaults=None, uncompared=()):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._defaults = defaults or {}
        cls._compared = tuple(n for n in cls._fields if n not in uncompared)
        if "_key" in cls.__slots__:
            cls._key_from = itemgetter(*map(cls._fields.index, cls._compared))
        else:
            cls._key = property(attrgetter(*cls._compared))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if (len(args) > len(fields) or values.keys() != set(fields)
                    or not kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__name__}() takes {fields}, each once")
            args = [values[field] for field in fields]
        for field, value in zip(fields, args):
            setfield(self, field, value)
        if self._key_from is not None:
            setfield(self, "_key", self._key_from(args))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{n: getattr(self, n) for n in self._fields} | changes)

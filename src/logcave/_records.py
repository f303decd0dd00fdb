"""Slotted value records: the package's small stand-in for dataclasses.

Importing dataclasses loads inspect, ast and dis, and every decorated
class then compiles generated methods; every command-line run would pay
for both.  A record class costs only its own definition.  This module
imports nothing, so any module may build on it.
"""


class Record:
    """A value record whose fields are its class's __slots__, in order.

    Records compare equal when their classes and field values are equal,
    and their repr reads ClassName(field=value, ...).  A class declared
    with ``frozen=True`` refuses assignment and deletion with
    AttributeError and hashes by its field values, so a field holding a
    dict makes hashing raise TypeError; any other record is unhashable.
    Pickling and copying rebuild a record through its constructor, which
    takes the field values positionally.

    This __init__ takes the fields positionally or by name, and falls back
    on the class's _defaults for the ones not given.  A record class is
    not subclassed further.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__setattr__ = _refuse
            cls.__delattr__ = _refuse
            cls.__hash__ = _hash

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in cls._defaults:
                object.__setattr__(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # only frozen records hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")


def _hash(self):
    return hash(self._values())

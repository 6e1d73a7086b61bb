"""Record, the base of coxsim's immutable value types.  Unlike a dataclass,
making a subclass compiles no code: these methods read the class's fields."""

from operator import attrgetter


class Record:
    """Fields are a subclass's own annotations, in order, and a class
    attribute is a default.  __init__ then runs __post_init__, which may
    set a field with object.__setattr__.  Equality and hash are by type and
    field values; the repr is a dataclass's."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        values = zip(self._fields, args)
        if kwargs or len(args) != len(self._fields):   # fields by name, or defaults
            given = dict(values, **kwargs)
            values = {**self._defaults, **given}
            if len(given) < len(args) + len(kwargs) or values.keys() != set(self._fields):
                raise TypeError(f"{type(self).__name__} takes {self._fields}, got {args}, {kwargs}")
            values = {f: values[f] for f in self._fields}   # vars() in field order
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return type(other) is type(self) and self._values(self) == other._values(other)

    def __hash__(self):
        return hash((type(self), self._values(self)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the changes, made, and so checked again, by __init__."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

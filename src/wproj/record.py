"""``Record``, the base of wproj's value classes: the fields are the class
annotations, in order, and a class attribute is a default.  A record equals
one of its class with equal fields, hashes as their tuple and refuses
assignment.  No code is generated, so defining a class costs nothing."""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)  # the class's own, not its bases'

    def __init__(self, *args, **kwargs):
        fields, attrs = self._fields, type(self).__dict__
        given = {**dict(zip(fields, args)), **kwargs}
        values = {**{name: attrs[name] for name in fields if name in attrs}, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the fields; a subclass normalizes one by object.__setattr__."""

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

"""Base class of the immutable records (graphs, curves, transfers, verdicts)."""


class Record:
    """An immutable value object, in the manner of a frozen dataclass.

    A subclass lists its fields in ``__match_args__`` and stores them in
    ``__slots__``; ``_defaults`` maps a trailing field to its default value.
    Each subclass gets a constructor that takes the fields by position or by
    keyword, sets each once and then calls ``__post_init__``, where the
    subclass checks them. Equality needs the same type and equal fields, the
    hash is that of the field tuple, and the repr lists the fields by name.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__match_args__" not in vars(cls):
            return
        # written out as source once per class, as for a dataclass: a generic
        # constructor that binds *args and **kwargs itself is three times slower
        names = cls.__match_args__
        params = [f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in names]
        lines = [f"def __init__(self, {', '.join(params)}):"]
        lines += [f"    _set(self, {n!r}, {n})" for n in names]
        lines.append("    self.__post_init__()")
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self) -> None:
        """Check the fields; a record with rules overrides this."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

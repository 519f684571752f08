"""Exact SO(3) quantum invariants of rational homology spheres.

Subpackages are layered: arith (residues at an odd prime), series
(truncated rational power series), cyclotomic (the ring Z[q] at a
prime root of unity and its x-adic shadow), jones (the split link
tables, whose values are products of quantized integers), nt (Dedekind
sums, the Rademacher phase, the three manifold presentations),
surgery (numeric and exact surgery-formula evaluators), closedform
(residue formulas for lens and Seifert spaces and their lambda
series), ohtsuki (the diamond/vee identity and rational
reconstruction), cli (command-line front end).
"""

__version__ = "0.1.0"


class _Record:
    """A frozen record over __slots__, as a frozen dataclass is: equal
    only within one class over every field, hashed as the field tuple,
    shown as Name(field=value, ...), pickled through its constructor.
    A subclass hands its slot values, in slot order, to __init__; the
    last `_derived` slots hold what its constructor derives from the
    fields, frozen like them but never compared, hashed or shown."""

    __slots__ = ()
    _derived = 0

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return self.__slots__[:len(self.__slots__) - self._derived]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields(), self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

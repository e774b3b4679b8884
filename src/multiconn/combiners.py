"""Combining schemes for multi-connectivity reception."""

import enum

from .exceptions import DomainError


class Combiner(enum.Enum):
    """Receiver-side combining scheme across the parallel links.

    JD decodes all branches jointly, MRC coherently adds them, SC keeps the
    strongest branch, and SCO is the single-link baseline (link 1 only).
    """

    JD = "jd"
    SC = "sc"
    MRC = "mrc"
    SCO = "sco"

    @classmethod
    def parse(cls, name):
        """Accept a Combiner instance or a case-insensitive name string;
        DomainError for any other name."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise DomainError(f"unknown combiner {name!r}; expected one of "
                              f"{[c.value for c in cls]}") from None

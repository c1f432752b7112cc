"""The one base class of the errors that bad input raises."""


class InputError(ValueError):
    """The input is malformed or out of bounds: a lattice, a polynomial, a
    family, a file or an option.  The command line exits 2 on these and 3 on
    every other exception."""

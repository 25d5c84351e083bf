"""The package's own exceptions, in a module that imports no other layer,
so that every layer can raise them."""


class BudgetError(ValueError):
    """A grid or enumeration would exceed its budget, parsing the term pairs it
    may multiply (``parse.PAIR_BUDGET``), the multilinear decision those of
    its closed forms (``assoc.DECISION_BUDGET``), a report its int-to-str
    limit, or a sampled check's degree half its sample set
    (``oracle._sample_points``).

    ``required`` is the smallest budget that admits the request (for parsing
    and the decision, the pairs charged up to the refused product or form, a
    lower bound), or None when
    the count is not printed: an enumeration box of more decimal digits than
    ``sys.get_int_max_str_digits()`` (Python's default limit when that is 0)
    is written as a power, such as ``3^16384``, and a report value of more
    digits than the live limit is refused.
    """

    def __init__(self, message: str, required: int | None):
        super().__init__(message)
        self.required = required


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; reported as exit code 3 by the CLI."""

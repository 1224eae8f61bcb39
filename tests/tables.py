"""The row index that `BigradedDGA` takes, written from (l1, l2) pairs."""


def rows_of(products):
    """The row index l1 -> l2 -> table of the product table `products`,
    given as (l1, l2) -> table; the tables themselves are not copied."""
    rows = {}
    for (l1, l2), table in products.items():
        rows.setdefault(l1, {})[l2] = table
    return rows

"""``read_rows``: the rows of a CSV file an ewas command wrote, read with the file closed."""

import csv


def read_rows(path, header: bool = True) -> list:
    """Rows as dicts keyed by the header line, or with ``header=False`` as lists,
    the header line included."""
    with open(path) as fh:
        return list(csv.DictReader(fh) if header else csv.reader(fh))

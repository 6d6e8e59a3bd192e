"""DET001 fixture: argsorts whose order among equal keys is machine-made.

Lines carrying ``# expect: RULE`` must be reported; all other lines
must stay clean.  This directory is excluded from real lint runs.
"""

import numpy
import numpy as np


def bad_argsorts(scores, table):
    first = np.argsort(scores)  # expect: DET001
    last = numpy.argsort(scores)[::-1]  # expect: DET001
    by_row = table.argsort(axis=0)  # expect: DET001
    quick = np.argsort(scores, kind="quicksort")  # expect: DET001
    heap = scores.argsort(0, "heapsort")  # expect: DET001
    return first, last, by_row, quick, heap


def good_argsorts(scores, table, keys):
    first = np.argsort(scores, kind="stable")
    last = numpy.argsort(scores, -1, "stable")[::-1]
    by_row = table.argsort(axis=0, kind="mergesort")
    positional = scores.argsort(-1, "stable")
    both = np.lexsort(keys)
    return first, last, by_row, positional, both

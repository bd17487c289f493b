"""Exact arithmetic on the fourth roots of unity {1, i, -1, -i}.

Units are encoded by their exponent e, with the unit equal to i**e.  Array
code works directly on small integer exponent arrays and uses
``UNIT_VALUES`` as a lookup table.
"""

from __future__ import annotations

import numpy as np

#: UNIT_VALUES[e] == i**e as a complex128. Multiplication of these values by
#: each other and by reals is exact in IEEE double arithmetic (it only
#: permutes and negates components).
UNIT_VALUES = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

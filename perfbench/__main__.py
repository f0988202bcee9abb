"""``python -m perfbench ...`` — see :mod:`perfbench.cli`."""

import sys

from .cli import main

sys.exit(main())

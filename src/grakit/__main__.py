"""Run the command-line front end as ``python -m grakit``."""

import sys

from .cli import main

sys.exit(main())

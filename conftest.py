"""Test-run settings for the whole checkout.

The suite writes no bytecode: a checkout that holds `src/liecoh/__pycache__`
starts its benchmark queries from cached bytecode and reads faster than a
fresh one.  This file sits at the root because pytest loads it before it
collects `bench/` or `tests/`, so before anything imports liecoh; the
environment variable carries the setting into the interpreters that tests
start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

"""python -m kuniform: the command-line front end, exiting with its code."""

import sys

from . import cli

sys.exit(cli.main())

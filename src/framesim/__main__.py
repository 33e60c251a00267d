"""``python -m framesim``: the command-line interface of :mod:`framesim.cli`."""
import sys

from .cli import main

sys.exit(main())

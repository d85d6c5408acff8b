"""Old path of :mod:`repro.api`, kept until ``benchmarks/e2e`` imports that."""

import sys

from .. import api

# The module itself, not a re-export: a patch of a name here (the e2e
# benchmark wraps ``make_runtime``) must reach the global the builders read.
sys.modules[__name__] = api

#!/usr/bin/env bash
# Checks hstab as `pip install .` without extras installs it, from outside
# the checkout: it must import from site-packages, ship its corpus, declare
# numpy and click as its only runtime dependencies, and run every
# subcommand through the `hstab` console script without importing scipy or
# mpmath.
set -euo pipefail
cd "$(mktemp -d)"

python - <<'PY'
import re
from importlib.metadata import requires

import hstab
from hstab.corpus import CORPUS_NAMES, corpus_path

assert "site-packages" in hstab.__file__, hstab.__file__
runtime = sorted(re.match(r"[\w.-]+", r).group() for r in requires("hstab") if "extra ==" not in r)
assert runtime == ["click", "numpy"], runtime
assert all(corpus_path(name).is_file() for name in CORPUS_NAMES)
PY

corpus() { python -c "from hstab.corpus import corpus_path; print(corpus_path('$1'))"; }

run() {
  if ! PYTHONPROFILEIMPORTTIME=1 hstab "$@" > report.json 2> stderr.log; then
    grep -v '^import time:' stderr.log >&2
    exit 1
  fi
  if grep -m1 -E '\| +(scipy|mpmath)(\.|$)' stderr.log; then
    echo "hstab $1 imported scipy or mpmath" >&2
    exit 1
  fi
  echo "hstab $1: ok"
}

run check "$(corpus square)"
run invariants "$(corpus blowup_one)" --xi 0.3,-0.5 --oracle 8
run optimize "$(corpus blowup_one)"
run dh "$(corpus hexagon)" --xi 0.5,0.25 --m 8
run character "$(corpus blowup_one)" --xi 0.3,-0.5

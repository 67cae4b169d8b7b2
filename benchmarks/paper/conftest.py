"""Benchmark-suite configuration: make the repo's harness importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

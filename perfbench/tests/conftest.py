import sys
from pathlib import Path

# the benchmark's modules live one directory up; the library under src/
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import sys
from pathlib import Path

KBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(KBENCH.parent / "src"), str(KBENCH)]

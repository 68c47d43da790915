import os
import sys
from pathlib import Path

# argparse wraps help and usage to the terminal width; fix it so the message
# goldens give the same bytes in any terminal
os.environ["COLUMNS"] = "80"

sys.path.insert(0, str(Path(__file__).parent))

"""README.md's Python examples: every ```python block runs, in a fresh
namespace, so an example that an API change left behind fails.

The tier-1 suite runs the blocks against the package on its path. Run as a
script, ``python tests/test_readme_examples.py`` runs them against the
installed package (the script's own directory, tests/, holds no glbounds),
prints the count of blocks run, and exits with an error where README.md has
no python block.
"""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_examples() -> int:
    """Run each python block of README.md; the number of blocks run."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    return len(blocks)


def test_every_readme_example_runs():
    assert run_examples() > 0, "README.md has no python block"


if __name__ == "__main__":
    count = run_examples()
    print(f"ran {count} README examples")
    sys.exit(None if count else "README.md has no python block")

"""The composition-sum oracle in `kernel`: independent of the package, and in
agreement with the series recurrence at every weight the tests use."""

import ast
import random
from pathlib import Path

import kernel

from torbound import TruncatedSeries


def test_the_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(kernel.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported and not any(name.split(".")[0] == "torbound" for name in imported)


def test_the_oracle_matches_the_recurrence_at_weights_0_to_20():
    rng = random.Random(2016)
    for _ in range(6):
        head = [rng.randint(-9, 9) for _ in range(20)]
        inverse = TruncatedSeries((1, *head)).invert()
        for m in range(21):
            assert kernel.inverse_series_coeff(head, m) == inverse.coefficient(m)

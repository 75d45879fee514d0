"""The README's library quick tour runs and prints what its comments say."""

import ast
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).parent.parent / "README.md"


def quick_tour() -> dict[str, tuple[object, str]]:
    """Run the README's python block statement by statement; map each bare
    expression's source to its value and the comment on its line."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    values = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            values[source] = (value, lines[node.lineno - 1].split("#", 1)[1].strip())
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_quick_tour_values_match_its_comments():
    tour = quick_tour()
    exact = {
        "bx.chsh_value(bx.correlations(p))": "2.8284271247461903",
        "bx.szabo_chsh(space)": "0.7071067811865476",
        "bx.verify_kolmogorov(space).all_ok": "True",
        "bx.local_polytope_membership(p).is_local": "False",
        "bx.lhv_max_chsh()": "2",
    }
    for source, text in exact.items():
        value, comment = tour[source]
        assert comment.split()[0].rstrip(",") == text, source
        assert repr(value) == text, source
    e, se = tour["report.e, report.se"][0]
    assert e.shape == se.shape == (2, 2)
    assert tour["report.s, report.s_se"][1].startswith("~2.828 +/- 0.003")
    s, s_se = tour["report.s, report.s_se"][0]
    assert s == pytest.approx(2.828, abs=0.01)
    assert np.isfinite(s_se) and 0.0 < s_se < 0.004

"""The README's library quick tour runs as written and returns what its
comments say."""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    """The first python block after the "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_quick_tour_returns_what_its_comments_state():
    # Run the block statement by statement and keep each bare expression's
    # value under its source text, as the comment beside it describes it.
    code = _tour()
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expression = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(code, node)] = eval(expression, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)

    assert values['transition_distribution(net, "b").weights'] == pytest.approx(
        {"a": 1 / 3, "c": 2 / 3}, rel=1e-15)
    assert values['effective_resistance(net, "a", "c")'] == pytest.approx(1.5, rel=1e-15)
    assert values['commute_time(net, "a", "c")'] == pytest.approx(6.0 * 1.5, rel=1e-14)
    assert values['return_time(net, "b")'] == pytest.approx(2.0, rel=1e-15)
    assert values['return_time_formula(net, "b")'] == 2.0
    assert values["stationary_distribution(net).weights"] == pytest.approx(
        {"a": 1 / 6, "b": 1 / 2, "c": 1 / 3}, rel=1e-15)
    assert values["trace.passed"] is True
    assert values['replay(net, "b", c=0.25).passed'] is True

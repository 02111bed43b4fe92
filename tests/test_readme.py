"""The README's Library example runs and gives the results its comments state."""
from pathlib import Path

from sidigraph import SAME_SIGN, ordered_sequence

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The fenced python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_gives_its_commented_results():
    block = library_block()
    # each commented line, code -> comment; "..." marks digits left out
    comments = {
        line.split("#", 1)[0].strip(): line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if "#" in line
    }
    assert comments == {
        "iota_energy_of_graph(g)": "17.322595...",
        "str(pair), pair_iota(pair)": "('(C2-,C24-)', 17.322595...)",
        "seq22 = restrict(seq, 22)": "== ordered_sequence(22, SAME_SIGN)",
    }
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert str(eval("iota_energy_of_graph(g)", namespace)).startswith("17.322595")
    label, value = eval("str(pair), pair_iota(pair)", namespace)
    assert label == "(C2-,C24-)"
    assert str(value).startswith("17.322595")
    assert namespace["seq22"] == ordered_sequence(22, SAME_SIGN)

"""``tools/code_lines.py``, whose per-module counts the simplicity changes quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load_tool()


def test_lists_every_module_and_their_sum(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for name, count in rows[:-1]}
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert sorted(counts) == modules and "operators.py" in modules
    assert all(count > 0 for count in counts.values())
    assert rows[-1] == ["total", str(sum(counts.values()))]


def test_counts_code_lines_only(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""The module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    # another comment\n"
        "    return (x +\n"
        "            math.pi)\n"
        "\n"
        "\n"
        "class K:\n"
        "    '''A class docstring.'''\n"
        "\n"
        "    text = '''a string that is\n"
        "    no docstring'''\n"
    )
    # import, def, the two lines of the return, class, and the two of text
    assert code_lines.code_lines(module) == 7

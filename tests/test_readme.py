import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_session_runs(capsys):
    # The documented library session must run against the public API.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["series"].total_dimension() == 56 * 133
    assert capsys.readouterr().out

"""Where the testbed is decided: a scan of the package's source."""

import ast
import pathlib

import kredux

# the modules that may name a testbed or read the radial chart; golden's
# closed form is stated in the chart variable u
TESTBED_HOMES = {"grids", "fixtures", "golden"}
TESTBED_NAMES = {"TORUS", "RADIAL"}
CHART_ATTRIBUTES = {"u", "v", "h_v"}


def scan(source):
    """(line, what) for each import of a testbed constant and each read of a
    chart attribute in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}") for a in node.names
                      if a.name in TESTBED_NAMES]
        elif isinstance(node, ast.Attribute) and (
                node.attr in CHART_ATTRIBUTES | TESTBED_NAMES):
            found.append((node.lineno, f"reads .{node.attr}"))
    return found


def test_only_grids_fixtures_and_golden_know_the_testbed():
    src = pathlib.Path(kredux.__file__).parent
    knowing = {}
    for path in sorted(src.glob("*.py")):
        found = scan(path.read_text(encoding="utf-8"))
        if found:
            knowing[path.stem] = found
    leaks = {m: f for m, f in knowing.items() if m not in TESTBED_HOMES}
    assert not leaks, leaks
    # the scan sees what it looks for where it is allowed
    assert set(knowing) == TESTBED_HOMES

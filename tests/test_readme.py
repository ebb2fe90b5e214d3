"""README.md names only what exists."""

import builtins
import re
from pathlib import Path

import subderiv as sd
import subderiv.cli as cli
from subderiv.problems import REGISTRY

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_backticked_identifier_in_the_readme_exists():
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", README.read_text()))
    assert names
    known = (set(REGISTRY) | set(cli._SETTING_KEYS) | set(cli.CSV_HEADER.split(","))
             | set(cli.FORMATS) | {"true", "false", "yes", "no"})
    classes = (sd.FunctionModel, sd.SetModel, sd.SemiDiffMap, sd.ScalarProxInner)
    missing = sorted(n for n in names if n not in known and not hasattr(sd, n)
                     and not hasattr(builtins, n)
                     and not any(hasattr(c, n) for c in classes))
    assert missing == []

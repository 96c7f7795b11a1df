"""The README's examples run as written: its run configuration loads through
``AfemConfig.from_dict`` and its library example executes, so a removed
config key or a changed signature in the docs fails the suite."""

import json
import os
import re

from plate_afem.afem import AfemConfig

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _blocks(lang, after=""):
    # the fenced ``lang`` blocks of the README that follow the text ``after``
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```", text[text.index(after):], re.M | re.S)


def test_config_example_loads():
    (example,) = _blocks("json")
    doc = json.loads(re.sub(r"//.*", "", example))      # the example's comments
    cfg = AfemConfig.from_dict(doc)
    assert (cfg.geometry, cfg.bc, cfg.n, cfg.cluster_size) == ("square", "clamped", 0, 1)


def test_library_example_runs(capsys):
    example = _blocks("python", after="## Library example")[0]
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    bound = float(lines[-1])
    assert 0 < bound < float("inf")

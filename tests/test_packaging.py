import importlib
import pathlib

import pytest

from resposet import cli, structfile

tomllib = pytest.importorskip("tomllib")        # new in Python 3.11

ROOT = pathlib.Path(__file__).parents[1]


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_the_distribution_is_named_after_its_package(project):
    assert project["project"]["name"] == "resposet"


def test_the_console_script_resolves_to_the_cli(project):
    module, _, attr = project["project"]["scripts"]["resposet"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


@pytest.mark.parametrize("name", ["chain3", "example1"])
def test_package_data_ships_the_bundled_structures(project, name):
    # a bare name that is no file falls back to the packaged data
    # directory, so the wheel must carry what the globs match there
    globs = project["tool"]["setuptools"]["package-data"]["resposet"]
    package = ROOT / "src" / "resposet"
    shipped = {path for glob in globs for path in package.glob(glob)}
    bundled = pathlib.Path(str(structfile.data_path(name + ".struct")))
    assert bundled.resolve() in {path.resolve() for path in shipped}
    assert structfile.load(name) == structfile.parse(
        bundled.read_text(encoding="utf-8"))

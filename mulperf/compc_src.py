"""Import compc from the checkout's own `src/` and from nowhere else."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingCompc(RuntimeError):
    pass


def import_compc():
    """Put `<checkout>/src` first on sys.path and import compc from it.

    Raises MissingCompc when the checkout has no `src/compc`, or when
    the package that got imported lives somewhere else (an installed
    copy imported earlier, say).
    """
    pkg = SRC / "compc"
    if not (pkg / "__init__.py").is_file():
        raise MissingCompc(f"no compc package at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    compc = importlib.import_module("compc")
    where = Path(compc.__file__).resolve().parent
    if where != pkg.resolve():
        raise MissingCompc(f"compc was imported from {where}, not {pkg}")
    return compc

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "size_report.py"
_spec = importlib.util.spec_from_file_location("size_report", _PATH)
size_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size_report)

MODULE = '''
from dataclasses import dataclass, field


def public(a, b=1, *args, c, **kwargs):
    return a


def _private(x):
    return x


class Plain:
    x: int


class Built:
    def __init__(self, edges, weights=None, *rest, scale=1.0, **extra):
        self.edges = edges

    def method(self, y):
        return y


@dataclass(frozen=True)
class Record:
    a: int
    b: float = 0.0
    derived: list = field(init=False)
    d: list = field(default_factory=list)

    def method(self, y):
        return y


@dataclass
class _Hidden:
    z: int
'''


def test_counts_of_a_synthetic_module():
    # public's a, b, c (not *args, **kwargs); Record's a, b, d (not the init=False field);
    # Built's edges, weights, scale (its __init__ without self, *rest, **extra); nothing
    # from the plain class without an __init__, the methods or the private names
    assert size_report.count([MODULE, "X = 1\n"]) == {
        "src lines": len(MODULE.splitlines()) + 1, "public names": 4, "settable values": 9}

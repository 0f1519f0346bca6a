import pytest

from geomsieve import dowling, generators, matroid

SMALL_ZOO = [
    "boolean:1",
    "boolean:2",
    "boolean:3",
    "boolean:4",
    "partition:2",
    "partition:3",
    "partition:4",
    "dowling:2:2",
    "dowling:3:2",
    "dowling:2:3",
    "uniform:2:4",
    "uniform:3:5",
    "graphic:k4",
]

# chain and divisor lattices are lattices but not geometric
NON_GEOMETRIC = ["chain:2", "chain:4", "divisor:12", "divisor:36"]


@pytest.fixture(params=SMALL_ZOO)
def zoo_lattice(request):
    return request.param, generators.parse_named(request.param)


@pytest.fixture(params=SMALL_ZOO + NON_GEOMETRIC)
def any_lattice(request):
    return request.param, generators.parse_named(request.param)


@pytest.fixture
def k4():
    return matroid.Matroid.complete_graphic(4)


@pytest.fixture
def u24():
    return matroid.Matroid.uniform(2, 4)


@pytest.fixture
def row_steps(monkeypatch):
    """The (m, r) of every step of dowling's Dowling-number stream, in
    order, for tests that pin how many steps a reader takes."""
    calls = []
    step = dowling._next_diagonal

    def counted(m, r, diag):
        calls.append((m, r))
        return step(m, r, diag)

    monkeypatch.setattr(dowling, "_next_diagonal", counted)
    return calls


@pytest.fixture
def triangle_steps(monkeypatch):
    """The index n of every Whitney-triangle row dowling forms, in
    order, for tests that pin how many rows a reader forms."""
    calls = []
    step = dowling._next_row

    def counted(prev, coefs):
        calls.append(len(prev))
        return step(prev, coefs)

    monkeypatch.setattr(dowling, "_next_row", counted)
    return calls

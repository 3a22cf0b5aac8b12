import pytest

from spekcat import verification as vf


@pytest.fixture(scope="session")
def spek_states_3():
    return vf.enumerate_states("spek", 3)


@pytest.fixture(scope="session")
def mspek_states_3():
    return vf.enumerate_states("mspek", 3)


@pytest.fixture(scope="session")
def spek_closure_1():
    return vf.enumerate_closure("spek")

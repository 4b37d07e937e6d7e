import pytest

from aslkit.families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    klein_group,
    quaternion_group,
    symmetric_group,
)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def a4():
    return alternating_group(4)


@pytest.fixture(scope="session")
def a5():
    return alternating_group(5)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return quaternion_group()


@pytest.fixture(scope="session")
def v4():
    return klein_group()


@pytest.fixture(scope="session")
def c6():
    return cyclic_group(6)


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(owner, name) wraps the function `owner.name` for the
    rest of the test and returns the list, filled as calls are made, of
    the first argument of each call (the group, or `self` for a method)."""
    def record(owner, name):
        calls = []
        real = getattr(owner, name)

        def recording(first, *args, **kwargs):
            calls.append(first)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return calls

    return record


@pytest.fixture
def count_products(monkeypatch):
    """count_products(G) counts, for the rest of the test, the products of
    G made through `G.mul` and through the closures `G.product()` hands out
    from then on, so a cost test also sees code that skips `Group.mul`;
    it returns a function that reads the count."""
    def count(G):
        n = 0
        mul, product = G.mul, G.product

        def counted_mul(i, j):
            nonlocal n
            n += 1
            return mul(i, j)

        def counted_product():
            raw = product()

            def counted(i, j):
                nonlocal n
                n += 1
                return raw(i, j)

            return counted

        monkeypatch.setattr(G, "mul", counted_mul)
        monkeypatch.setattr(G, "product", counted_product)
        return lambda: n

    return count

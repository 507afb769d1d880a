import pytest

from cheralg.suites import RunOptions, make_env


# Session-scoped environments so expensive per-context caches (osp
# generators, projected elements) are shared across test modules.  Options
# are set when an env is built, so a test that needs others builds its own
# env; at teardown each shared env must still have the defaults.

def _shared_env(spec):
    env = make_env(spec)
    yield env
    assert env.options == RunOptions(), f"a test changed {spec}'s options"


@pytest.fixture(scope="session")
def env_a12():
    yield from _shared_env("A1@2")


@pytest.fixture(scope="session")
def env_b22():
    yield from _shared_env("B2@2")


@pytest.fixture(scope="session")
def env_a23():
    yield from _shared_env("A2@3")


@pytest.fixture(scope="session")
def env_a15():
    yield from _shared_env("A1@5")


@pytest.fixture(scope="session")
def env_a16():
    yield from _shared_env("A1@6")


@pytest.fixture(scope="session")
def ctx_a12(env_a12):
    return env_a12.ctx


@pytest.fixture(scope="session")
def ctx_b22(env_b22):
    return env_b22.ctx


@pytest.fixture(scope="session")
def ctx_a23(env_a23):
    return env_a23.ctx

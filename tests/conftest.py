from pathlib import Path

import pytest

from chainwatch.encoder import FeatureEncoder
from chainwatch.fingerprints import WhiteList, load_fingerprints
from chainwatch.monitor import StateTable

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
DATA_DIR = SRC_DIR / "chainwatch" / "data"
FIXTURES = DATA_DIR / "fixtures"


def child_env(**extra: str) -> dict[str, str]:
    """Scrubbed environment, plus ``extra``, for a child interpreter that
    imports chainwatch from this checkout, installed or not."""
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC_DIR), **extra}


def next_index(table, exploit_id: int) -> int:
    """The index in its chain of the next template ``table`` waits on for ``exploit_id``."""
    place = table.db.positions[exploit_id]
    return int(table._cursors[place] - table.db.start_rows[place])


@pytest.fixture
def recorded_steps(monkeypatch) -> list[tuple[int, int]]:
    """``(trace_offset, distinct candidates)`` of every ``StateTable.step`` call, in order."""
    steps = []
    step = StateTable.step

    def record(self, candidates, x, trace_offset, *args, **kwargs):
        steps.append((trace_offset, len(set(candidates))))
        return step(self, candidates, x, trace_offset, *args, **kwargs)

    monkeypatch.setattr(StateTable, "step", record)
    return steps


# Filled in by tests/test_acceptance.py; printed after the run so the
# verdict for every criterion shows up in one block.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def encoder() -> FeatureEncoder:
    return FeatureEncoder.from_paths()


@pytest.fixture(scope="session")
def vocabs(encoder):
    return encoder.vocabs


@pytest.fixture(scope="session")
def sql_db(encoder):
    return load_fingerprints(FIXTURES / "sqlinj.fp", encoder)


@pytest.fixture(scope="session")
def whitelist():
    return WhiteList.from_file(FIXTURES / "whitelist.txt")


@pytest.fixture(scope="session")
def small_world(encoder):
    from .synthgen import make_world

    return make_world(n_exploits=6, seed=424, encoder=encoder, benign_count=12)


@pytest.fixture(scope="session")
def small_db(small_world, encoder):
    return small_world.db(encoder)

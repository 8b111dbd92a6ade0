import pytest

_RESULTS = []


def pattern_blocks(p, positions=False) -> tuple:
    """The blocks of the Pattern p in block order, read off p.order and
    p.ends: each a tuple of its classes, or of their positions in p.classes."""
    blocks, start = [], 0
    for end in p.ends:
        block = p.order[start:end]
        blocks.append(tuple(block) if positions else tuple(p.classes[i] for i in block))
        start = end
    return tuple(blocks)


@pytest.fixture
def acceptance():
    """Recorder for the acceptance-criteria summary printed after the run."""

    def record(tag, name, passed, detail=""):
        _RESULTS.append((tag, name, bool(passed), detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for tag, name, passed, detail in sorted(_RESULTS):
        line = f"{tag} {name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)

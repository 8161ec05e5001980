"""The committed CLI transcript replays byte for byte (``tests/transcript.py``)."""

import pytest

import transcript
from conftest import CROSSVAL, HIGHER_ORDER_SOURCES, WALKTHROUGH

RECORDS = transcript.load()


def test_the_transcript_is_the_one_the_script_writes():
    assert [r["argv"] for r in RECORDS] == transcript._runs()
    assert len(RECORDS) >= 30


def test_the_crossval_source_is_conftests():
    assert (transcript.SOURCES / "crossval.tt").read_text() == CROSSVAL.lstrip("\n")


def test_the_other_fuzzed_sources_are_conftests():
    assert (transcript.SOURCES / "walkthrough.tt").read_text() == WALKTHROUGH.lstrip("\n")
    for i, source in enumerate(HIGHER_ORDER_SOURCES):
        assert (transcript.SOURCES / f"higher_order_{i}.tt").read_text() == source


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_record_replays(record):
    assert transcript.run(record["argv"]) == record

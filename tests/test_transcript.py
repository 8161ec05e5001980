"""The committed CLI transcript replays byte for byte (``tests/transcript.py``)."""

import pytest

import transcript
from conftest import CROSSVAL

RECORDS = transcript.load()


def test_the_transcript_is_the_one_the_script_writes():
    assert [r["argv"] for r in RECORDS] == transcript._runs()
    assert len(RECORDS) >= 30


def test_the_crossval_source_is_conftests():
    assert (transcript.SOURCES / "crossval.tt").read_text() == CROSSVAL.lstrip("\n")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_record_replays(record):
    assert transcript.run(record["argv"]) == record

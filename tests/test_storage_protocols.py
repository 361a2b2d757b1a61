"""Tests for iSCSI BHS and login PDU encoding (incl. property round-trips)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.iscsi import (
    BHS_SIZE,
    BasicHeaderSegment,
    IscsiError,
    LoginRequestPdu,
    LoginResponsePdu,
    PduOpcode,
)


# --- iSCSI PDUs -----------------------------------------------------------------------


def test_bhs_round_trip():
    bhs = BasicHeaderSegment(
        opcode=PduOpcode.SCSI_COMMAND,
        flags=0xC0,
        data_segment_length=0x123456,
        lun=3,
        initiator_task_tag=0xDEADBEEF,
        opcode_specific=bytes(range(28)),
    )
    raw = bhs.encode()
    assert len(raw) == BHS_SIZE
    assert BasicHeaderSegment.decode(raw) == bhs


def test_bhs_dsl_range():
    with pytest.raises(IscsiError):
        BasicHeaderSegment(
            opcode=PduOpcode.NOP_OUT, data_segment_length=1 << 24
        ).encode()


def test_bhs_short_buffer_rejected():
    with pytest.raises(IscsiError):
        BasicHeaderSegment.decode(bytes(10))


def test_bhs_unknown_opcode_rejected():
    raw = bytearray(BasicHeaderSegment(opcode=PduOpcode.NOP_OUT).encode())
    raw[0] = 0x3F
    with pytest.raises(IscsiError):
        BasicHeaderSegment.decode(bytes(raw))


def test_login_round_trip():
    req = LoginRequestPdu("iqn.init", "iqn.tgt", task_tag=5)
    bhs_raw, text = req.encode()
    back = LoginRequestPdu.from_bhs(BasicHeaderSegment.decode(bhs_raw), text)
    assert back == req
    resp = LoginResponsePdu(task_tag=5, status_class=0)
    back2 = LoginResponsePdu.from_bhs(BasicHeaderSegment.decode(resp.encode()))
    assert back2 == resp


def test_login_missing_keys_rejected():
    req = LoginRequestPdu("iqn.init", "iqn.tgt")
    bhs_raw, _ = req.encode()
    with pytest.raises(IscsiError):
        LoginRequestPdu.from_bhs(BasicHeaderSegment.decode(bhs_raw), b"garbage")


@given(
    st.integers(min_value=0, max_value=(1 << 24) - 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.sampled_from(list(PduOpcode)),
    st.binary(min_size=28, max_size=28),
)
@settings(max_examples=150, deadline=None)
def test_bhs_round_trip_property(dsl, lun, itt, opcode, specific):
    bhs = BasicHeaderSegment(
        opcode=opcode,
        flags=0x80,
        data_segment_length=dsl,
        lun=lun,
        initiator_task_tag=itt,
        opcode_specific=specific,
    )
    assert BasicHeaderSegment.decode(bhs.encode()) == bhs

"""Fuzz the wire-format decoders.

A decoder fed arbitrary bytes must either return a valid object or raise
its *typed* protocol error — never an IndexError, struct.error or other
internal exception.  These properties catch the classic parser bugs
(short reads, bad enum values, length-field lies).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rftp.protocol import RftpProtocolError, decode_message
from repro.storage.iscsi import (
    BasicHeaderSegment,
    IscsiError,
    LoginResponsePdu,
    PduOpcode,
)


@given(st.binary(max_size=96))
@settings(max_examples=400, deadline=None)
def test_bhs_decoder_total(raw):
    try:
        bhs = BasicHeaderSegment.decode(raw)
    except IscsiError:
        return
    assert BasicHeaderSegment.decode(bhs.encode()).opcode is bhs.opcode


@given(st.binary(max_size=64))
@settings(max_examples=400, deadline=None)
def test_rftp_decoder_total(raw):
    try:
        msg = decode_message(raw)
    except RftpProtocolError:
        return
    # valid messages round-trip
    assert type(decode_message(msg.encode())) is type(msg)


@given(st.binary(min_size=1, max_size=48).map(lambda b: bytes([0x02]) + b))
@settings(max_examples=200, deadline=None)
def test_rftp_block_descriptor_prefix_fuzz(raw):
    """Tag-valid but possibly-truncated descriptors never crash."""
    try:
        decode_message(raw)
    except RftpProtocolError:
        pass


@given(st.binary(min_size=48, max_size=48))
@settings(max_examples=300, deadline=None)
def test_full_size_bhs_fuzz(raw):
    """Exactly-48-byte inputs: decode is total over the opcode space."""
    try:
        bhs = BasicHeaderSegment.decode(raw)
        if bhs.opcode is PduOpcode.LOGIN_RESPONSE:
            LoginResponsePdu.from_bhs(bhs)
    except IscsiError:
        return
    assert bhs.data_segment_length < (1 << 24)

"""iSCSI PDU framing subset (RFC 7143 layout): the login exchange.

iSER replaces iSCSI's TCP data phases with RDMA operations but keeps the
PDU vocabulary for commands and responses.  This module implements the
Basic Header Segment (48 bytes) and the Login Request/Response PDUs,
byte-exact, with property-tested round-trips.  Every session login
(:meth:`repro.storage.initiator.IserSession.login`) encodes and decodes
them.  Command and response PDUs are not framed: the datamover
(:mod:`repro.storage.iser`) models them as latency and moves the data as
real RDMA operations.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = ["PduOpcode", "BasicHeaderSegment", "LoginRequestPdu",
           "LoginResponsePdu", "IscsiError"]

BHS_SIZE = 48


class IscsiError(ValueError):
    """Malformed PDU."""


class PduOpcode(enum.IntEnum):
    # initiator opcodes
    """iSCSI PDU opcodes (initiator and target halves)."""
    NOP_OUT = 0x00
    SCSI_COMMAND = 0x01
    TASK_MGMT_REQUEST = 0x02
    LOGIN_REQUEST = 0x03
    # target opcodes
    NOP_IN = 0x20
    SCSI_RESPONSE = 0x21
    TASK_MGMT_RESPONSE = 0x22
    LOGIN_RESPONSE = 0x23


@dataclass(frozen=True)
class BasicHeaderSegment:
    """The fixed 48-byte header common to all PDUs."""

    opcode: PduOpcode
    flags: int = 0
    data_segment_length: int = 0
    lun: int = 0
    initiator_task_tag: int = 0
    opcode_specific: bytes = bytes(28)

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        if not (0 <= self.data_segment_length < 1 << 24):
            raise IscsiError(f"DSL out of range: {self.data_segment_length}")
        if len(self.opcode_specific) != 28:
            raise IscsiError("opcode-specific field must be 28 bytes")
        dsl = self.data_segment_length
        header = struct.pack(
            ">BBBB",
            int(self.opcode),
            self.flags,
            0,
            0,
        )
        ahs_dsl = bytes([0, (dsl >> 16) & 0xFF, (dsl >> 8) & 0xFF, dsl & 0xFF])
        lun = struct.pack(">Q", self.lun)
        itt = struct.pack(">I", self.initiator_task_tag)
        out = header + ahs_dsl + lun + itt + self.opcode_specific
        assert len(out) == BHS_SIZE
        return out

    @classmethod
    def decode(cls, raw: bytes) -> "BasicHeaderSegment":
        """Parse the wire format (raises the typed protocol error on junk)."""
        if len(raw) < BHS_SIZE:
            raise IscsiError(f"short BHS: {len(raw)} bytes")
        opcode_byte = raw[0] & 0x3F
        try:
            opcode = PduOpcode(opcode_byte)
        except ValueError as exc:
            raise IscsiError(f"unknown PDU opcode {opcode_byte:#x}") from exc
        flags = raw[1]
        dsl = (raw[5] << 16) | (raw[6] << 8) | raw[7]
        (lun,) = struct.unpack(">Q", raw[8:16])
        (itt,) = struct.unpack(">I", raw[16:20])
        return cls(
            opcode=opcode,
            flags=flags,
            data_segment_length=dsl,
            lun=lun,
            initiator_task_tag=itt,
            opcode_specific=bytes(raw[20:48]),
        )


@dataclass(frozen=True)
class LoginRequestPdu:
    """Login request (simplified: a single full-feature negotiation)."""

    initiator_name: str
    target_name: str
    task_tag: int = 0

    def encode(self) -> tuple[bytes, bytes]:
        """Returns (BHS, data segment) — login carries text keys as data."""
        text = (
            f"InitiatorName={self.initiator_name}\x00"
            f"TargetName={self.target_name}\x00"
            "HeaderDigest=None\x00DataDigest=None\x00RDMAExtensions=Yes\x00"
        ).encode()
        bhs = BasicHeaderSegment(
            opcode=PduOpcode.LOGIN_REQUEST,
            flags=0x87,  # transit to full-feature
            data_segment_length=len(text),
            initiator_task_tag=self.task_tag,
        ).encode()
        return bhs, text

    @classmethod
    def from_bhs(cls, bhs: BasicHeaderSegment, data: bytes) -> "LoginRequestPdu":
        """Build from a decoded basic header segment."""
        if bhs.opcode is not PduOpcode.LOGIN_REQUEST:
            raise IscsiError(f"not a login request: {bhs.opcode!r}")
        keys = dict(
            kv.split("=", 1)
            for kv in data.decode(errors="replace").split("\x00")
            if "=" in kv
        )
        if "InitiatorName" not in keys or "TargetName" not in keys:
            raise IscsiError("login missing InitiatorName/TargetName")
        return cls(
            initiator_name=keys["InitiatorName"],
            target_name=keys["TargetName"],
            task_tag=bhs.initiator_task_tag,
        )


@dataclass(frozen=True)
class LoginResponsePdu:
    """Login response: success moves the session to full-feature phase."""

    task_tag: int = 0
    status_class: int = 0  # 0 = success

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        specific = bytes([self.status_class]) + bytes(27)
        return BasicHeaderSegment(
            opcode=PduOpcode.LOGIN_RESPONSE,
            flags=0x87,
            initiator_task_tag=self.task_tag,
            opcode_specific=specific,
        ).encode()

    @classmethod
    def from_bhs(cls, bhs: BasicHeaderSegment) -> "LoginResponsePdu":
        """Build from a decoded basic header segment."""
        if bhs.opcode is not PduOpcode.LOGIN_RESPONSE:
            raise IscsiError(f"not a login response: {bhs.opcode!r}")
        return cls(task_tag=bhs.initiator_task_tag, status_class=bhs.opcode_specific[0])

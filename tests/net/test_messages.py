"""Message grammar: immutability, tags, and the wire-size model."""

import dataclasses

import pytest

from repro.net.messages import (
    HEADER_BYTES,
    INT_BYTES,
    MSG_TYPES,
    ExchangeAbort,
    ExchangeCommit,
    ExchangePrepare,
    Notify,
    VarProbe,
    VarReply,
    Walk,
)

ONE_OF_EACH = [
    Walk(src=0, dst=1, origin=0, ttl=2, cycle=7, path=(0,)),
    VarProbe(src=1, dst=2, cycle=7),
    VarReply(src=1, dst=0, cycle=7, candidate=1, ok=True, path=(0, 1),
             cand_neighbors=(2, 3)),
    ExchangePrepare(src=0, dst=1, xid=9, cycle=7, policy="G", var=1.5,
                    give_u=(), give_v=()),
    ExchangeCommit(src=1, dst=0, xid=9),
    ExchangeAbort(src=1, dst=0, xid=9, reason="busy"),
    Notify(src=0, dst=3, xid=9, commit=False),
]


def test_grammar_covers_every_type():
    assert sorted(m.type_name for m in ONE_OF_EACH) == sorted(MSG_TYPES)
    assert len(set(MSG_TYPES)) == len(MSG_TYPES)


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=lambda m: m.type_name)
def test_messages_are_frozen(msg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.src = 99


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=lambda m: m.type_name)
def test_size_has_header_plus_payload(msg):
    assert msg.size_bytes() >= HEADER_BYTES


def test_size_scales_with_payload_lists():
    short = Walk(src=0, dst=1, origin=0, ttl=2, cycle=7, path=(0,))
    long = Walk(src=0, dst=1, origin=0, ttl=2, cycle=7, path=(0, 1, 2))
    assert long.size_bytes() - short.size_bytes() == 2 * INT_BYTES


def test_size_counts_scalars_and_strings():
    commit = ExchangeCommit(src=1, dst=0, xid=9)
    assert commit.size_bytes() == HEADER_BYTES + INT_BYTES  # xid only
    abort = ExchangeAbort(src=1, dst=0, xid=9, reason="busy")
    assert abort.size_bytes() == HEADER_BYTES + INT_BYTES + len("busy")


#: The §4.3 size model, written out per type: header, then 4 bytes per
#: number, 1 per bool, 4 per tuple element and 1 per str character.
EXPECTED_SIZES = {
    "WALK": HEADER_BYTES + 3 * INT_BYTES + 1 * INT_BYTES,
    "VAR_PROBE": HEADER_BYTES + INT_BYTES,
    "VAR_REPLY": HEADER_BYTES + 2 * INT_BYTES + 1 + 2 * INT_BYTES + 2 * INT_BYTES,
    "EXCHANGE_PREPARE": HEADER_BYTES + 2 * INT_BYTES + len("G") + INT_BYTES,
    "EXCHANGE_COMMIT": HEADER_BYTES + INT_BYTES,
    "EXCHANGE_ABORT": HEADER_BYTES + INT_BYTES + len("busy"),
    "NOTIFY": HEADER_BYTES + INT_BYTES + 1,
}


def test_expected_sizes_cover_the_grammar():
    assert sorted(EXPECTED_SIZES) == sorted(MSG_TYPES)


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=lambda m: m.type_name)
def test_size_pinned_per_type(msg):
    assert msg.size_bytes() == EXPECTED_SIZES[msg.type_name]


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=lambda m: m.type_name)
def test_span_ids_add_no_bytes(msg):
    stamped = dataclasses.replace(msg, trace_id=5, span_id=6, parent_id=7)
    assert stamped.size_bytes() == msg.size_bytes()


def test_size_of_a_trade_prepare_counts_both_give_lists():
    prepare = ExchangePrepare(src=0, dst=1, xid=9, cycle=7, policy="O", var=1.5,
                              give_u=(4, 5), give_v=(6, 7))
    assert prepare.size_bytes() == (
        EXPECTED_SIZES["EXCHANGE_PREPARE"] + 4 * INT_BYTES
    )


def test_size_charges_one_byte_per_bool_whatever_its_value():
    for ok in (True, False):
        reply = VarReply(src=1, dst=0, cycle=7, candidate=1, ok=ok, path=(),
                         cand_neighbors=())
        assert reply.size_bytes() == HEADER_BYTES + 2 * INT_BYTES + 1

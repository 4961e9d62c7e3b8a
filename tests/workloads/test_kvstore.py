"""The kv client's reply check: byte-exact first, structural on a mismatch."""

import pytest

from repro.net import World
from repro.workloads import protocol
from repro.workloads.kvstore import KvRequestFactory, KvServer


def last_reply(server, batches):
    """What a correct server answers to the last of *batches*."""
    store = {key: server._initial_value(key).decode() for key in range(server.n_keys)}
    for body in batches:
        kind, ops = protocol.decode_body(body)
        assert kind == "BATCH"
        results = []
        for op, key, value in ops:
            if op == "set":
                store[key] = value
                results.append("OK")
            else:
                results.append(store[key])
    return results


@pytest.fixture
def batch():
    server = KvServer(n_keys=16, value_len=32)
    factory = KvRequestFactory(server, World(seed=1), batch_size=10)
    requests = [factory(i) for i in range(3)]
    results = last_reply(server, [body for body, _, _ in requests])
    _, check, ops = requests[-1]
    assert ops == 10
    return check, results


def encode(results):
    return protocol.encode_body(("RESULTS", results))


def test_exact_reply_passes(batch):
    check, results = batch
    assert check(encode(results)) is None


def test_corrupted_value_keeps_get_mismatch_message(batch):
    check, results = batch
    results[1] = results[1][:-1] + "X"
    assert check(encode(results)).startswith("get mismatch: ")


def test_missing_get_counted(batch):
    check, results = batch
    assert check(encode(results[:-1])) == "expected 5 get results, saw 4"


def test_bad_kind_reported(batch):
    check, results = batch
    assert check(protocol.encode_body(("ERR", results))) == "bad response kind 'ERR'"


def test_moved_ok_fails_though_gets_are_in_order(batch):
    """Swapping an "OK" with its neighbouring get keeps the gets in order,
    which the structural check alone accepted."""
    check, results = batch
    assert results[0] == "OK" and results[1] != "OK"
    results[0], results[1] = results[1], results[0]
    assert check(encode(results)) == "response bytes differ"

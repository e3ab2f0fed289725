import random
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepc import engine, hashers, keyspace, planner, protocol
from threepc.cli import EXIT_OK, EXIT_PROTOCOL, client_main
from threepc.engine import ListSink, crack
from threepc.potfile import Hits, PotfileWriter, iter_potfile
from threepc.predicate import (
    Digest,
    eval_predicate,
    parse_vector,
    serialize_vector,
    zk_vector,
)
from threepc.protocol import (
    CandidateChunk,
    ConnectionLostError,
    ErrorReply,
    HashInfoAck,
    HashInfoRequest,
    JobDone,
    JobSubmit,
    ProtocolViolation,
    ServerError,
    decode_payload,
    encode_message,
    parse_endpoint,
    recv_message,
    run_job,
    send_message,
)

import fixtures

texts = st.text(max_size=40)
blobs = st.binary(max_size=60)
u64 = st.integers(0, 2 ** 64 - 1)


@st.composite
def hit_batches(draw):
    width = draw(st.sampled_from([4, 16, 32]))
    return Hits.from_pairs(draw(st.lists(st.tuples(
        blobs, st.binary(min_size=width, max_size=width)), max_size=8)))


hex_pairs = st.lists(st.tuples(
    st.binary(min_size=4, max_size=4).map(bytes.hex), blobs), max_size=8)

messages = st.one_of(
    st.builds(HashInfoRequest, texts),
    st.builds(HashInfoAck, texts, u64, u64),
    st.builds(JobSubmit, texts, texts, texts, blobs),
    st.builds(CandidateChunk, hit_batches()),
    st.builds(CandidateChunk, hex_pairs.map(tuple)),
    st.builds(JobDone, u64, u64, u64, u64),
    st.builds(ErrorReply, texts, texts),
)


class TestFraming:
    @settings(max_examples=300)
    @given(messages)
    def test_encode_decode_round_trip(self, msg):
        frame = encode_message(msg)
        length, tag = struct.unpack(">IB", frame[:5])
        assert length == len(frame) - 5
        assert decode_payload(tag, frame[5:]) == msg

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolViolation) as err:
            decode_payload(0x7F, b"")
        assert err.value.code == "bad-message"

    @given(messages, st.integers(0, 20))
    def test_truncated_payload_rejected(self, msg, cut):
        frame = encode_message(msg)
        payload = frame[5:]
        if not payload:
            return
        cut = min(cut, len(payload) - 1)
        tag = frame[4]
        with pytest.raises(ProtocolViolation):
            decode_payload(tag, payload[:len(payload) - 1 - cut])

    def test_trailing_bytes_rejected(self):
        frame = encode_message(HashInfoRequest("crc32"))
        with pytest.raises(ProtocolViolation):
            decode_payload(frame[4], frame[5:] + b"\x00")

    @pytest.mark.parametrize("msg, frame_hex", [
        (HashInfoRequest("crc32"),
         "00000009" "01" "00000005" "6372633332"),
        (HashInfoAck("sha256", 64, 1234567),
         "0000001a" "02" "00000006" "736861323536"
         "0000000000000040" "000000000012d687"),
        (JobSubmit("crc32", "0f3a", "hybrid:words:?w?d", b"alpha\nbravo\n"),
         "00000036" "03" "00000005" "6372633332" "00000004" "30663361"
         "00000011" "6879627269643a776f7264733a3f773f64"
         "0000000c" "616c7068610a627261766f0a"),
        (JobSubmit("ntlm", "0f", "mask:?d"),
         "0000001d" "03" "00000004" "6e746c6d" "00000002" "3066"
         "00000007" "6d61736b3a3f64" "00000000"),
        (CandidateChunk(()),
         "00000014" "04" "0000000000000000" "00000000" "00000000" "00000000"),
        (CandidateChunk((("c6bfaba2", b"pw"), ("00ff00ff", b"a:b\xff"))),
         "0000002a" "04" "0000000000000002"
         "00000008" "c6bfaba2" "00ff00ff"
         "00000008" "00000002" "00000004"
         "00000006" "7077" "613a62ff"),
        (JobDone(2000, 7, 2 ** 64 - 1, 3),
         "00000020" "05" "00000000000007d0" "0000000000000007"
         "ffffffffffffffff" "0000000000000003"),
        (ErrorReply("unknown-corpus", "no corpus named 'café'"),
         "0000002d" "06" "0000000e" "756e6b6e6f776e2d636f72707573"
         "00000017" "6e6f20636f72707573206e616d65642027636166c3a927"),
    ], ids=["hash-info-request", "hash-info-ack", "job-submit-corpus",
            "job-submit", "chunk-empty", "chunk-two-pairs", "job-done",
            "error-reply-utf8"])
    def test_golden_frames(self, msg, frame_hex):
        frame = bytes.fromhex(frame_hex)
        assert encode_message(msg) == frame
        assert decode_payload(frame[4], frame[5:]) == msg

    def test_hex_pairs_and_batches_make_one_chunk(self):
        pairs = (("C6BFABA2", b"pw"), ("00ff00ff", b"a:b"))
        assert CandidateChunk(pairs) == CandidateChunk(Hits.from_pairs(
            [(b"pw", bytes.fromhex("c6bfaba2")),
             (b"a:b", bytes.fromhex("00ff00ff"))]))

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 16_384])
    def test_cut_chunks_reassemble_the_potfile(self, tmp_path, n):
        # a server-side batch of n hits, cut into frames, decoded and
        # written frame by frame, is the batch's own potfile
        rng = random.Random(n)
        hits = Hits.from_pairs([(rng.randbytes(rng.randrange(12)).replace(
            b"\n", b":"), rng.randbytes(4)) for _ in range(n)])
        sent = []

        class Wire:
            def sendall(self, frame):
                sent.append(frame)

        protocol._ChunkSink(Wire()).write_hits(hits)
        assert len(sent) == -(-n // protocol.CHUNK_PAIRS)
        pot = tmp_path / "cut.pot"
        with PotfileWriter(pot) as out:
            for frame in sent:
                chunk = decode_payload(frame[4], frame[5:])
                assert 0 < len(chunk.hits) <= protocol.CHUNK_PAIRS
                out.write_hits(chunk.hits)
            assert out.pairs_written == n
        assert pot.read_bytes() == hits.lines()

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:3727") == ("127.0.0.1", 3727)
        assert parse_endpoint("::1:65535") == ("::1", 65535)
        for text in ("nope", "127.0.0.1:", "127.0.0.1:-1", "127.0.0.1:65536",
                     "127.0.0.1:111175"):
            with pytest.raises(ValueError):
                parse_endpoint(text)


def _make_plan(target_pw=b"37", descriptor="mask:?d?d", r=5.0, algo="crc32",
               size=100, seed=1):
    target = hashers.digest(algo, target_pw)
    return planner.build_plan(target, algo, descriptor, size, r, seed=seed)


class TestServer:
    def test_end_to_end_job_matches_offline_engine(self, local_server, tmp_path):
        plan = _make_plan(seed=3)
        pot = tmp_path / "net.pot"
        report = run_job(plan, local_server.address, pot)
        assert report.hashed_count == 100

        spec = keyspace.make_keyspace(plan.keyspace_descriptor)
        sink = ListSink()
        crack(parse_vector(plan.vector_hex), spec, plan.algo_id, sink)
        offline = sorted((d.hex(), pw) for pw, d in sink.pairs)
        networked = sorted((d, pw) for _, d, pw in list(iter_potfile(pot, 8)))
        assert networked == offline

    def test_identical_jobs_reproduce(self, local_server, tmp_path):
        plan = _make_plan(seed=4)
        pots = []
        for name in ("a.pot", "b.pot"):
            path = tmp_path / name
            run_job(plan, local_server.address, path)
            pots.append(sorted(list(iter_potfile(path, 8))))
        assert pots[0] == pots[1]

    def test_inline_corpus_upload(self, local_server, tmp_path):
        words = b"alpha\nbravo\ncharlie\n"
        plan = _make_plan(target_pw=b"bravo7",
                          descriptor="hybrid:uploaded:?w?d", size=30, seed=5)
        pot = tmp_path / "hybrid.pot"
        report = run_job(plan, local_server.address, pot, inline_corpus=words)
        assert report.hashed_count == 30

    def test_unknown_corpus_name(self, local_server, tmp_path):
        plan = _make_plan(descriptor="wordlist:absent", size=10, seed=6)
        with pytest.raises(ServerError) as err:
            run_job(plan, local_server.address, tmp_path / "x.pot")
        assert err.value.code == "unknown-corpus"

    def test_vector_length_mismatch(self, local_server):
        with socket.create_connection(local_server.address) as sock:
            send_message(sock, HashInfoRequest("crc32"))
            assert isinstance(recv_message(sock), HashInfoAck)
            send_message(sock, JobSubmit("crc32", "0f" * 10, "mask:?d"))
            reply = recv_message(sock)
        assert isinstance(reply, ErrorReply)
        assert reply.code == "vector-length-mismatch"

    def test_unknown_algo(self, local_server):
        with socket.create_connection(local_server.address) as sock:
            send_message(sock, HashInfoRequest("md5"))
            reply = recv_message(sock)
        assert isinstance(reply, ErrorReply)
        assert reply.code == "unknown-algo"

    def test_protocol_order_enforced(self, local_server):
        job = JobSubmit("crc32", "0f" * 8, "mask:?d")
        # job before hash info
        with socket.create_connection(local_server.address) as sock:
            send_message(sock, job)
            reply = recv_message(sock)
        assert isinstance(reply, ErrorReply) and reply.code == "protocol-order"
        # duplicated hash info request
        with socket.create_connection(local_server.address) as sock:
            send_message(sock, HashInfoRequest("crc32"))
            recv_message(sock)
            send_message(sock, HashInfoRequest("crc32"))
            reply = recv_message(sock)
        assert isinstance(reply, ErrorReply) and reply.code == "protocol-order"

    @pytest.mark.parametrize("frames_sent", [0, 1])
    def test_silent_client_is_dropped(self, local_server, tmp_path,
                                      monkeypatch, frames_sent):
        # silent before the hash-info request, or before the job submission
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.2)
        threads = threading.active_count()
        with socket.create_connection(local_server.address,
                                      timeout=10) as silent:
            if frames_sent:
                send_message(silent, HashInfoRequest("crc32"))
                assert isinstance(recv_message(silent), HashInfoAck)
            assert silent.recv(1) == b""  # closed by the server
        for _ in range(100):  # the handler's thread ends
            if threading.active_count() == threads:
                break
            threading.Event().wait(0.05)
        assert threading.active_count() == threads
        report = run_job(_make_plan(seed=3), local_server.address,
                         tmp_path / "next.pot")
        assert report.hashed_count == 100

    def test_oversized_frame_rejected(self, corpus_dir):
        server = protocol.CrackServer("127.0.0.1", 0, corpus_dir,
                                      max_frame=1024)
        server.serve_in_background()
        try:
            with socket.create_connection(server.address) as sock:
                sock.sendall(struct.pack(">IB", 10_000_000, 0x01))
                reply = recv_message(sock)
            assert isinstance(reply, ErrorReply)
            assert reply.code == "frame-too-large"
        finally:
            server.shutdown()

    def test_unserved_server_closes_on_leaving_its_block(self):
        def enter_and_leave():
            with protocol.CrackServer("127.0.0.1", 0) as server:
                ports.append(server.address[1])

        ports: list[int] = []
        thread = threading.Thread(target=enter_and_leave, daemon=True)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        with socket.socket() as probe:  # the port is free again
            probe.bind(("127.0.0.1", ports[0]))

    def test_background_server_stops_on_leaving_its_block(self):
        with protocol.CrackServer("127.0.0.1", 0) as server:
            loop = server.serve_in_background()
        loop.join(10)
        assert not loop.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=5).close()

    def test_bad_descriptor(self, local_server, tmp_path):
        plan = _make_plan(seed=8)
        plan.keyspace_descriptor = "mask:?x"
        with pytest.raises(ServerError) as err:
            run_job(plan, local_server.address, tmp_path / "y.pot")
        assert err.value.code == "bad-descriptor"

    def test_connection_refused_maps_to_connection_lost(self, tmp_path):
        plan = _make_plan(seed=9)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ConnectionLostError):
            run_job(plan, ("127.0.0.1", free_port), tmp_path / "z.pot")


@contextmanager
def serving(corpus_dir, workers):
    server = protocol.CrackServer("127.0.0.1", 0, corpus_dir=corpus_dir,
                                  workers=workers)
    server.serve_in_background()
    try:
        yield server
    finally:
        server.shutdown()


def raw_job(address, job):
    """Submit job through raw frames; the messages that answer it, read
    until the server closes, and their bytes."""
    with socket.create_connection(address, timeout=30) as sock:
        send_message(sock, HashInfoRequest(job.algo_id))
        assert isinstance(recv_message(sock), HashInfoAck)
        send_message(sock, job)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    messages, at = [], 0
    while at < len(data):
        length, tag = struct.unpack_from(">IB", data, at)
        messages.append(decode_payload(tag, data[at + 5:at + 5 + length]))
        at += 5 + length
    return messages, data


def write_corpus(corpus_dir, name, words):
    (corpus_dir / name).write_bytes(b"\n".join(words) + b"\n")


def oracle_potfile(plan, words):
    """The plan's potfile over a wordlist, from the oracle's hashes and
    the pure predicate."""
    v = parse_vector(plan.vector_hex)
    lines = []
    for pw in words:
        raw = fixtures.oracle_digest(plan.algo_id, pw)
        if raw is not None and eval_predicate(v, Digest.from_bytes(raw)):
            lines.append(raw.hex().encode() + b":" + pw + b"\n")
    return b"".join(lines)


def counts(report):
    return report.hashed_count, report.skipped_count, report.hit_count


class TestCorpusNames:
    @pytest.mark.parametrize("descriptor", [
        "wordlist:../secret.txt", "wordlist:{secret}", "wordlist:..",
        "hybrid:../secret.txt:?w?d", "hybrid:{secret}:?w?d",
    ], ids=["wordlist-up", "wordlist-absolute", "wordlist-parent",
            "hybrid-up", "hybrid-absolute"])
    def test_name_outside_the_directory_is_unknown(self, local_server,
                                                   corpus_dir, descriptor):
        secret = corpus_dir.parent / "secret.txt"
        secret.write_bytes(b"hunter2\nswordfish\n")
        job = JobSubmit("crc32", "0f" * 8, descriptor.format(secret=secret))
        messages, data = raw_job(local_server.address, job)
        assert [type(m) for m in messages] == [ErrorReply]
        assert messages[0].code == "unknown-corpus"
        assert b"hunter2" not in data and b"swordfish" not in data


class TestDigestTables:
    @pytest.mark.parametrize("algo", ["crc32", "sha256", "ntlm"])
    def test_cold_and_warm_jobs_equal_offline(self, local_server, corpus_dir,
                                              tmp_path, monkeypatch, algo):
        # a small cap cuts the table's build and each job into 6 ranges,
        # each of which skips rows under ntlm
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 500)
        words = fixtures.mixed_words(3000)
        write_corpus(corpus_dir, "mixed", words)
        plan = _make_plan(words[6], "wordlist:mixed", 300.0, algo,
                          len(words), seed=21)
        spec = keyspace.make_keyspace(plan.keyspace_descriptor,
                                      keyspace.DirectoryCorpus(corpus_dir))
        with PotfileWriter(tmp_path / "offline.pot") as out:
            offline = crack(parse_vector(plan.vector_hex), spec, algo, out)
        expected = (tmp_path / "offline.pot").read_bytes()
        assert expected == oracle_potfile(plan, words)
        assert offline.skipped_count == (1000 if algo == "ntlm" else 0)
        for run in ("cold", "warm"):
            report = run_job(plan, local_server.address,
                             tmp_path / f"{run}.pot")
            assert (tmp_path / f"{run}.pot").read_bytes() == expected
            assert counts(report) == counts(offline)
        assert list(local_server.tables) == [("mixed", algo)]
        table = local_server.tables["mixed", algo]
        rows = offline.hashed_count - offline.skipped_count
        width = hashers.descriptor(algo).digest_nibbles // 2
        assert table.digests.shape == (rows, width)
        # the digests, every word's end offset plus a leading 0, the
        # words' bytes and, under ntlm, the hashed rows' keyspace offsets
        assert table.nbytes == (rows * width + 8 * (len(words) + 1)
                                + sum(map(len, words))
                                + (8 * rows if algo == "ntlm" else 0))
        assert (table.hashed is None) == (algo != "ntlm")

    def test_concurrent_cold_sessions_build_one_table(self, corpus_dir,
                                                      tmp_path, monkeypatch):
        build = engine.DigestTable.build
        builds = []

        def slow_build(spec, algo_id):
            builds.append((spec.wordlist_name, algo_id))
            time.sleep(0.3)  # the other session's job arrives meanwhile
            return build(spec, algo_id)

        monkeypatch.setattr(engine.DigestTable, "build",
                            staticmethod(slow_build))
        words = fixtures.mixed_words(3000)
        write_corpus(corpus_dir, "mixed", words)
        plans = [_make_plan(words[k], "wordlist:mixed", 300.0, "crc32",
                            len(words), seed=k) for k in (6, 601)]
        with serving(corpus_dir, workers=2) as server, \
                ThreadPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(
                lambda i: run_job(plans[i], server.address,
                                  tmp_path / f"s{i}.pot", timeout=60),
                range(2)))
        assert builds == [("mixed", "crc32")]
        for i, plan in enumerate(plans):
            assert (tmp_path / f"s{i}.pot").read_bytes() == oracle_potfile(
                plan, words)
            assert reports[i].hashed_count == len(words)

    def test_a_cold_build_blocks_only_its_own_table(self, local_server,
                                                    corpus_dir, tmp_path,
                                                    monkeypatch):
        build = engine.DigestTable.build
        slow_started, warm_done = threading.Event(), threading.Event()
        saw_warm_done = []

        def slow_build(spec, algo_id):
            if spec.wordlist_name == "slow":
                slow_started.set()
                # slowed until the warm job over "fast" is done, at most 5 s
                saw_warm_done.append(warm_done.wait(5))
            return build(spec, algo_id)

        monkeypatch.setattr(engine.DigestTable, "build",
                            staticmethod(slow_build))
        words = fixtures.mixed_words(300)
        for name in ("fast", "slow"):
            write_corpus(corpus_dir, name, words)
        fast, slow = (_make_plan(words[6], f"wordlist:{name}", 30.0,
                                 "crc32", len(words), seed=5)
                      for name in ("fast", "slow"))
        run_job(fast, local_server.address, tmp_path / "cold.pot")
        with ThreadPoolExecutor(max_workers=1) as pool:
            cold = pool.submit(run_job, slow, local_server.address,
                               tmp_path / "slow.pot", timeout=60)
            assert slow_started.wait(10)
            run_job(fast, local_server.address, tmp_path / "warm.pot",
                    timeout=60)
            warm_done.set()
            cold.result(timeout=60)
        assert saw_warm_done == [True]
        for plan, pot in ((fast, "cold"), (fast, "warm"), (slow, "slow")):
            assert (tmp_path / f"{pot}.pot").read_bytes() == oracle_potfile(
                plan, words)
        assert sorted(local_server.tables) == [("fast", "crc32"),
                                               ("slow", "crc32")]

    def test_only_corpus_wordlists_get_a_table(self, local_server,
                                               corpus_dir):
        write_corpus(corpus_dir, "demo", [b"alpha", b"bravo"])
        uploaded = b"charlie\ndelta\n"
        for descriptor, corpus, hashed in [
                ("wordlist:uploaded", uploaded, 2),
                ("hybrid:uploaded:?w?d", uploaded, 20),
                ("hybrid:demo:?w?d", b"", 20),
                ("mask:?d?d", b"", 100)]:
            messages, _ = raw_job(local_server.address, JobSubmit(
                "crc32", "0f" * 8, descriptor, corpus))
            assert messages[-1].hashed_count == hashed
        # a client cannot grow the server's memory by uploading lists
        assert local_server.tables == {}
        raw_job(local_server.address,
                JobSubmit("crc32", "0f" * 8, "wordlist:demo"))
        assert list(local_server.tables) == [("demo", "crc32")]
        # an upload under a corpus's name is hashed, not read from its table
        messages, _ = raw_job(local_server.address, JobSubmit(
            "crc32", "0f" * 8, "wordlist:demo", uploaded))
        assert sorted(pw for m in messages[:-1]
                      for pw, _ in m.hits.pairs()) == [b"charlie", b"delta"]
        assert list(local_server.tables) == [("demo", "crc32")]


def chunk_payload(digests, lengths, passwords, count=None):
    """A CandidateChunk payload built field by field, so that its columns
    may disagree: count (default: one row per length), then the digest,
    length (ints, or the blob itself) and password blobs."""
    if not isinstance(lengths, bytes):
        lengths = b"".join(n.to_bytes(4, "big") for n in lengths)
    if count is None:
        count = len(lengths) // 4
    return b"".join((count.to_bytes(8, "big"),
                     len(digests).to_bytes(4, "big"), digests,
                     len(lengths).to_bytes(4, "big"), lengths,
                     len(passwords).to_bytes(4, "big"), passwords))


@contextmanager
def scripted_server(payload, hit_count, connections=1, hashed_count=100):
    """A fake server on a loopback socket: each of its connections gets a
    valid hash-info ack for 4-byte digests, one CandidateChunk frame with
    the raw payload, then JobDone(hashed_count, hit_count).  _make_plan's
    keyspace has 100 candidates."""
    listener = socket.create_server(("127.0.0.1", 0))
    frame = struct.pack(">IB", len(payload), 0x04) + payload

    def serve():
        for _ in range(connections):
            conn, _ = listener.accept()
            with conn:
                try:
                    request = recv_message(conn)
                    send_message(conn, HashInfoAck(request.algo_id, 8, 1000))
                    recv_message(conn)
                    conn.sendall(frame)
                    send_message(conn, JobDone(hashed_count, hit_count, 1, 0))
                except (OSError, ConnectionLostError):
                    pass  # the client hung up first

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with listener:
        yield listener.getsockname()
        thread.join(10)
        assert not thread.is_alive()


PW = bytes.fromhex("c6bfaba2")


class TestHostileServer:
    @pytest.mark.parametrize("payload, hit_count, hashed_count, code", [
        (chunk_payload(PW + b"\x00\x00\x00", [2, 2], b"pwpw"), 2, 100,
         "bad-message"),
        (chunk_payload(PW + b"\x00", [2], b"pw"), 1, 100, "bad-candidate"),
        (chunk_payload(PW, [2], b"pw", count=2), 2, 100, "bad-message"),
        (chunk_payload(PW, b"\x00\x00\x02", b"pw", count=1), 1, 100,
         "bad-message"),
        (chunk_payload(PW, [3], b"pw"), 1, 100, "bad-message"),
        (chunk_payload(PW, [9], b"two\nlines"), 1, 100, "bad-candidate"),
        (chunk_payload(PW, [2], b"pw"), 2, 100, "bad-count"),
        (chunk_payload(PW, [2], b"pw"), 1, 99, "bad-count"),
    ], ids=["digest-blob", "digest-width", "lengths-blob",
            "lengths-blob-ragged", "lengths-sum", "newline-in-password",
            "hit-count", "hashed-count"])
    def test_malformed_results_are_protocol_violations(
            self, tmp_path, payload, hit_count, hashed_count, code):
        plan = _make_plan(seed=12)
        plan_path = tmp_path / "job.plan"
        plan_path.write_text(plan.to_text())
        with scripted_server(payload, hit_count, 2,
                             hashed_count) as (host, port):
            with pytest.raises(ProtocolViolation) as err:
                run_job(plan, (host, port), tmp_path / "a.pot", timeout=10)
            assert err.value.code == code
            assert client_main([
                "run", "--plan", str(plan_path), "--out",
                str(tmp_path / "b.pot"), "--server", f"{host}:{port}",
                "--timeout", "10",
            ]) == EXIT_PROTOCOL

    def test_well_formed_results_are_written_in_lowercase(self, tmp_path):
        payload = chunk_payload(PW + bytes.fromhex("00ff00ff"), [2, 3],
                                b"pwa:b")
        with scripted_server(payload, 2) as endpoint:
            report = run_job(_make_plan(seed=12), endpoint,
                             tmp_path / "a.pot", timeout=10)
        assert report.hit_count == 2
        assert (tmp_path / "a.pot").read_bytes() == (
            b"c6bfaba2:pw\n00ff00ff:a:b\n")

    def test_plan_without_keyspace_size_takes_any_hashed_count(self,
                                                              tmp_path):
        # genv plans store keyspace_size 0: there is no |DS| to hold the
        # server to
        plan = _make_plan(seed=12)
        plan.keyspace_size, plan.expected_candidates = 0, 0.0
        with scripted_server(chunk_payload(PW, [2], b"pw"), 1,
                             hashed_count=12345) as endpoint:
            report = run_job(plan, endpoint, tmp_path / "a.pot", timeout=10)
        assert report.hashed_count == 12345


def _cli_session(tmp_path, name, password, descriptor, r, seed, endpoint,
                 plan_args=()):
    """plan, then run --server, through the CLI with a plan store of the
    session's own; returns the plan path and the potfile."""
    target = hashers.digest("crc32", password).hex
    store = tmp_path / f"{name}-plans"
    assert client_main([
        "plan", "--algo", "crc32", "--target", target,
        "--keyspace", descriptor, "--r", str(r), "--seed", str(seed),
        "--plan-store", str(store), *plan_args,
    ]) == EXIT_OK
    plan_path = store / f"{target}.plan"
    pot = tmp_path / f"{name}.pot"
    assert client_main([
        "run", "--plan", str(plan_path), "--out", str(pot),
        "--server", "%s:%d" % endpoint,
    ]) == EXIT_OK
    return plan_path, pot


def _cli_verify(capsys, plan_path, pot):
    capsys.readouterr()
    code = client_main(["verify", "--plan", str(plan_path),
                        "--potfile", str(pot)])
    return code, capsys.readouterr().out


class TestClientSession:
    def test_full_session_cracks_planted_target(self, local_server,
                                                corpus_dir, tmp_path, capsys):
        words = [b"w%05d" % i for i in range(5000)]
        (corpus_dir / "demo").write_bytes(b"\n".join(words) + b"\n")
        plan_path, pot = _cli_session(
            tmp_path, "sess", b"w01234", "wordlist:demo", 40.0, 11,
            local_server.address, ("--corpus-dir", str(corpus_dir)))
        code, out = _cli_verify(capsys, plan_path, pot)
        assert code == EXIT_OK
        assert "cracked = yes\n" in out
        assert "cleartext = w01234\n" in out
        assert "proof_of_work = pass\n" in out
        assert "spot_check = pass " in out
        report = (tmp_path / "sess.pot.report").read_text()
        assert "hashed_count = 5000\n" in report

    def test_concurrent_sessions_stay_isolated(self, local_server, tmp_path,
                                              capsys):
        from concurrent.futures import ThreadPoolExecutor

        def session(tag: int):
            return tag, _cli_session(
                tmp_path, f"conc{tag}", b"t%d%d%d" % (tag, tag, tag),
                "mask:t?d?d?d", 4.0, tag, local_server.address)

        with ThreadPoolExecutor(max_workers=2) as pool:
            sessions = dict(pool.map(session, (1, 2)))
        for tag, (plan_path, pot) in sessions.items():
            report = (tmp_path / f"conc{tag}.pot.report").read_text()
            assert "hashed_count = 1000\n" in report
            code, out = _cli_verify(capsys, plan_path, pot)
            assert code == EXIT_OK
            assert "cracked = yes\n" in out
            assert "cleartext = t%d%d%d\n" % (tag, tag, tag) in out

    def test_wire_never_contains_target_digest(self, local_server, tmp_path):
        rng = random.Random(0xD1CE)
        for trial in range(5):
            pw = b"s%06d" % rng.randrange(10 ** 6)
            plan = _make_plan(target_pw=pw, descriptor="mask:?d?d?d", r=3.0,
                              size=1000, seed=trial)
            tx = bytearray()
            run_job(plan, local_server.address, tmp_path / f"p{trial}.pot",
                    tx_log=tx)
            wire = bytes(tx)
            assert plan.target_hex.encode() not in wire
            assert plan.target_hex.upper().encode() not in wire

"""Framed client/server job exchange over a TCP byte stream.

Frame layout: 4-byte big-endian payload length, 1-byte type tag, payload.
Payload fields: unsigned integers are 8-byte big-endian; strings and
byte blobs are length-prefixed (4-byte big-endian) raw bytes.  There is
no self-describing envelope, so frames are bit-exact testable.  Each
message's tag and field layout is declared once, in _LAYOUT, which both
encode_message and decode_payload read.

A CandidateChunk carries one ``potfile.Hits`` batch as columns: a u64
row count, then three blobs: the raw digests (count x width bytes, row
after row), the password lengths (``>u4`` each) and the passwords joined
in row order.  The decoder checks that the three agree with the count;
the client checks the width against the ack and writes the batch to the
potfile as it is.

Per connection the exchange is strictly ordered: hash-info request and
ack, one job submission, zero or more candidate chunks, one completion
record.  The server waits at most IDLE_TIMEOUT seconds on each of the
two request frames, then drops the connection.  The target digest never
appears in any client frame; the only job-derived fields on the wire are
the vector hex and the keyspace descriptor.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import engine, hashers, keyspace, potfile
from .keyspace import DirectoryCorpus, UnresolvedCorpusError
from .planner import Plan
from .predicate import parse_vector

DEFAULT_PORT = 3727
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
INLINE_CORPUS_CAP = 256 * 1024 * 1024
CHUNK_PAIRS = 4096
# seconds the server waits on a client's hash-info request and job
# submission; a client silent for longer is dropped, freeing its thread
IDLE_TIMEOUT = 60.0

_HEADER = struct.Struct(">IB")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")


class ProtocolViolation(RuntimeError):
    """Malformed or out-of-order traffic; code is the wire error code."""

    def __init__(self, code: str, text: str):
        super().__init__(f"{code}: {text}")
        self.code = code
        self.text = text


class ServerError(RuntimeError):
    """The server answered with an ErrorReply."""

    def __init__(self, code: str, text: str):
        super().__init__(f"server error {code}: {text}")
        self.code = code
        self.text = text


class ConnectionLostError(RuntimeError):
    """Stream ended mid-exchange; report is partial and counts the
    candidates retained."""

    def __init__(self, message: str, hits: int = 0):
        super().__init__(message)
        self.report = engine.CrackReport(0, hits, 0.0, 0.0, partial=True)


@dataclass(frozen=True)
class HashInfoRequest:
    algo_id: str


@dataclass(frozen=True)
class HashInfoAck:
    algo_id: str
    digest_nibbles: int
    rate_hps: int


@dataclass(frozen=True)
class JobSubmit:
    algo_id: str
    vector_hex: str
    keyspace_descriptor: str
    corpus: bytes = b""  # optional inline wordlist; empty means absent


@dataclass(frozen=True)
class CandidateChunk:
    hits: potfile.Hits  # a tuple of (digest_hex, password) is converted

    def __post_init__(self):
        if isinstance(self.hits, tuple):
            object.__setattr__(self, "hits", potfile.Hits.from_pairs(
                [(password, bytes.fromhex(digest_hex))
                 for digest_hex, password in self.hits]))


@dataclass(frozen=True)
class JobDone:
    hashed_count: int
    hit_count: int
    elapsed_ms: int
    skipped_count: int


@dataclass(frozen=True)
class ErrorReply:
    code: str
    text: str


Message = (HashInfoRequest | HashInfoAck | JobSubmit | CandidateChunk
           | JobDone | ErrorReply)


def _pack_bytes(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _pack_str(text: str) -> bytes:
    return _pack_bytes(text.encode("utf-8"))


def _pack_hits(hits: potfile.Hits) -> bytes:
    return b"".join((_U64.pack(len(hits)),
                     _pack_bytes(hits.digests.tobytes()),
                     _pack_bytes(hits.lengths.astype(">u4").tobytes()),
                     _pack_bytes(hits.passwords)))


class _PayloadReader:
    def __init__(self, payload: bytes):
        self._data = payload
        self._at = 0

    def u64(self) -> int:
        if self._at + 8 > len(self._data):
            raise ProtocolViolation("bad-message", "truncated integer field")
        value = _U64.unpack_from(self._data, self._at)[0]
        self._at += 8
        return value

    def blob(self) -> bytes:
        if self._at + 4 > len(self._data):
            raise ProtocolViolation("bad-message", "truncated length prefix")
        n = _U32.unpack_from(self._data, self._at)[0]
        self._at += 4
        if self._at + n > len(self._data):
            raise ProtocolViolation("bad-message", "truncated byte field")
        value = self._data[self._at:self._at + n]
        self._at += n
        return value

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolViolation("bad-message",
                                    "string field is not UTF-8") from None

    def hits(self) -> potfile.Hits:
        count = self.u64()
        digests, lengths, passwords = self.blob(), self.blob(), self.blob()
        width, extra = (divmod(len(digests), count) if count
                        else (0, len(digests)))
        ok = not extra and len(lengths) == 4 * count
        sizes = np.frombuffer(lengths if ok else b"", ">u4").astype(np.int64)
        if not ok or sizes.sum() != len(passwords):
            raise ProtocolViolation(
                "bad-message",
                f"chunk columns disagree: {count} rows, {len(digests)} "
                f"digest bytes, {len(lengths)} length bytes, "
                f"{len(passwords)} password bytes")
        return potfile.Hits(
            np.frombuffer(digests, np.uint8).reshape(count, width),
            sizes, passwords)

    def done(self) -> None:
        if self._at != len(self._data):
            raise ProtocolViolation("bad-message",
                                    "trailing bytes in payload")


class _Kind(NamedTuple):
    """How one payload field is written and read."""

    pack: Callable[[Any], bytes]
    read: Callable[[_PayloadReader], Any]


_STRING = _Kind(_pack_str, _PayloadReader.text)
_BLOB = _Kind(_pack_bytes, _PayloadReader.blob)
_UINT64 = _Kind(_U64.pack, _PayloadReader.u64)
# u64 count, then the digest, length and password blobs
_HITS = _Kind(_pack_hits, _PayloadReader.hits)

# The wire format, declared once: each message's type tag and the kinds of
# its fields in dataclass order, which is also their order on the wire.
_LAYOUT: dict[type, tuple[int, tuple[_Kind, ...]]] = {
    HashInfoRequest: (0x01, (_STRING,)),
    HashInfoAck: (0x02, (_STRING, _UINT64, _UINT64)),
    JobSubmit: (0x03, (_STRING, _STRING, _STRING, _BLOB)),
    CandidateChunk: (0x04, (_HITS,)),
    JobDone: (0x05, (_UINT64, _UINT64, _UINT64, _UINT64)),
    ErrorReply: (0x06, (_STRING, _STRING)),
}
_BY_TAG = {tag: (cls, kinds) for cls, (tag, kinds) in _LAYOUT.items()}


def encode_message(msg: Message) -> bytes:
    try:
        tag, kinds = _LAYOUT[type(msg)]
    except KeyError:
        raise TypeError(f"not a protocol message: {msg!r}") from None
    payload = b"".join(kind.pack(getattr(msg, field.name))
                       for kind, field in zip(kinds, fields(msg), strict=True))
    return _HEADER.pack(len(payload), tag) + payload


def decode_payload(tag: int, payload: bytes) -> Message:
    try:
        cls, kinds = _BY_TAG[tag]
    except KeyError:
        raise ProtocolViolation("bad-message",
                                f"unknown type tag {tag}") from None
    reader = _PayloadReader(payload)
    msg = cls(*[kind.read(reader) for kind in kinds])
    reader.done()
    return msg


def _recvall(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError as exc:
            raise ConnectionLostError(f"connection failed mid-frame: {exc}"
                                      ) from exc
        if not chunk:
            raise ConnectionLostError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def send_message(sock: socket.socket, msg: Message,
                 tx_log: bytearray | None = None) -> None:
    frame = encode_message(msg)
    if tx_log is not None:
        tx_log += frame
    try:
        sock.sendall(frame)
    except OSError as exc:
        raise ConnectionLostError(f"connection failed mid-send: {exc}"
                                  ) from exc


def recv_message(sock: socket.socket,
                 max_frame: int = DEFAULT_MAX_FRAME) -> Message:
    header = _recvall(sock, _HEADER.size)
    length, tag = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolViolation("frame-too-large",
                                f"{length} bytes exceeds {max_frame}")
    return decode_payload(tag, _recvall(sock, length))


# ---------------------------------------------------------------------------
# Server


class _ChunkSink:
    """Streams hit batches to the client as CandidateChunk frames of at
    most CHUNK_PAIRS rows."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def write_hits(self, hits: potfile.Hits) -> None:
        for part in hits.split(CHUNK_PAIRS):
            send_message(self._sock, CandidateChunk(part))


class _JobHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # one job per connection
        server: CrackServer = self.server.owner  # type: ignore[attr-defined]
        sock = self.request
        try:
            self._run_job(server, sock)
        except (ConnectionLostError, ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except ProtocolViolation as exc:
            self._reply_error(sock, exc.code, exc.text)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply_error(sock, "internal-error", str(exc))

    def _reply_error(self, sock, code: str, text: str) -> None:
        try:
            send_message(sock, ErrorReply(code, text))
        except ConnectionLostError:
            pass

    def _run_job(self, server: "CrackServer", sock: socket.socket) -> None:
        sock.settimeout(IDLE_TIMEOUT)
        msg = recv_message(sock, server.max_frame)
        if not isinstance(msg, HashInfoRequest):
            raise ProtocolViolation("protocol-order",
                                    "expected hash-info request first")
        if msg.algo_id not in hashers.known_algos():
            raise ProtocolViolation("unknown-algo", msg.algo_id)
        desc = hashers.descriptor(msg.algo_id)
        rate = hashers.measure_rate(msg.algo_id, server.rate_budget)
        send_message(sock, HashInfoAck(msg.algo_id, desc.digest_nibbles,
                                       int(rate)))

        msg = recv_message(sock, server.max_frame)
        # the results stream for as long as the crack runs: sends block
        sock.settimeout(None)
        if not isinstance(msg, JobSubmit):
            raise ProtocolViolation("protocol-order",
                                    "expected job submission")
        job = msg
        if job.algo_id not in hashers.known_algos():
            raise ProtocolViolation("unknown-algo", job.algo_id)
        try:
            vector = parse_vector(job.vector_hex)
        except ValueError as exc:
            raise ProtocolViolation("bad-vector", str(exc)) from None
        nibbles = hashers.descriptor(job.algo_id).digest_nibbles
        if len(vector) != nibbles:
            raise ProtocolViolation(
                "vector-length-mismatch",
                f"vector covers {len(vector)} nibbles, {job.algo_id} "
                f"digests have {nibbles}",
            )
        if len(job.corpus) > INLINE_CORPUS_CAP:
            raise ProtocolViolation("corpus-too-large",
                                    f"inline corpus exceeds {INLINE_CORPUS_CAP}")
        try:
            spec = keyspace.parse_descriptor(job.keyspace_descriptor)
        except keyspace.KeyspaceError as exc:
            raise ProtocolViolation("bad-descriptor", str(exc)) from None
        table = None
        if not spec.resolved:
            if job.corpus:
                words, _ = keyspace.ingest_wordlist(job.corpus)
                spec = keyspace.resolve(spec, words=words)
            else:
                try:
                    spec = keyspace.resolve(spec, server.corpus)
                except UnresolvedCorpusError as exc:
                    raise ProtocolViolation("unknown-corpus", str(exc)) from None
                if spec.mode == "wordlist":
                    table = server.digest_table(spec, job.algo_id)

        sink = _ChunkSink(sock)
        start = time.perf_counter()
        report = engine.crack_parallel(vector, spec, job.algo_id, sink,
                                       n_workers=server.workers, table=table)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        send_message(sock, JobDone(report.hashed_count, report.hit_count,
                                   elapsed_ms, report.skipped_count))


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CrackServer:
    """The daemon side: one crack job per connection, streamed results.

    The digests of a wordlist from the corpus directory depend only on
    the list and the algorithm, so the first ``wordlist:<name>`` job under
    an algorithm hashes the list into an ``engine.DigestTable``, kept in
    ``tables`` for the server's life, and later jobs over it only filter.
    Inline corpora, hybrids and masks are hashed per job.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 corpus_dir: str | Path | None = None, workers: int = 1,
                 rate_budget: int = 100_000,
                 max_frame: int = DEFAULT_MAX_FRAME):
        self.corpus = DirectoryCorpus(corpus_dir) if corpus_dir else None
        self.workers = workers
        self.rate_budget = rate_budget
        self.max_frame = max_frame
        self._tcp = _TCPServer((host, port), _JobHandler)
        self._tcp.owner = self  # type: ignore[attr-defined]
        self._served = False
        # (corpus name, algo) -> its digest table, built under that key's
        # lock in _building; _tables_lock guards _building alone
        self.tables: dict[tuple[str, str], engine.DigestTable] = {}
        self._building: dict[tuple[str, str], threading.Lock] = {}
        self._tables_lock = threading.Lock()

    def digest_table(self, spec: keyspace.KeyspaceSpec, algo_id: str
                     ) -> engine.DigestTable:
        """The table of a wordlist spec resolved from the corpus
        directory, built by the first job that asks for it; jobs that
        ask for it while it is built wait for it, and no other job
        does."""
        key = (spec.wordlist_name, algo_id)
        with self._tables_lock:
            lock = self._building.setdefault(key, threading.Lock())
        with lock:
            if key not in self.tables:
                self.tables[key] = engine.DigestTable.build(spec, algo_id)
            return self.tables[key]

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        self._served = True
        self._tcp.serve_forever()

    def serve_in_background(self) -> threading.Thread:
        self._served = True  # before the thread runs: see shutdown
        thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the serve loop, if one was started, and close the socket.
        socketserver's shutdown blocks until a loop ends, so it would hang
        on a server that never served; a loop asked to stop before it
        starts ends at once."""
        try:
            if self._served:
                self._tcp.shutdown()
        finally:
            self._tcp.server_close()

    def __enter__(self) -> "CrackServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# Client


def parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    if int(port) > 65535:
        raise ValueError(f"endpoint port must be at most 65535, got {text!r}")
    return host, int(port)


def _connect(endpoint: tuple[str, int], timeout: float | None
             ) -> socket.socket:
    try:
        return socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        raise ConnectionLostError(f"cannot connect to {endpoint}: {exc}"
                                  ) from exc


def run_job(plan: Plan, endpoint: tuple[str, int], potfile_path: str | Path,
            inline_corpus: bytes = b"", tx_log: bytearray | None = None,
            timeout: float | None = None) -> engine.CrackReport:
    """Submit a planned job and stream the candidate set to a potfile.

    The potfile is opened before the server is contacted, and an OSError
    out of this function comes from the potfile alone: socket failures
    raise ConnectionLostError.  Malformed candidate chunks (columns that
    disagree, a digest width other than the ack's, a newline in a
    password) and a JobDone whose hit count disagrees with the rows
    received, or whose hashed count is not the plan's keyspace size,
    raise ProtocolViolation.
    On connection loss the partial potfile is kept, and the raised
    error's partial report counts the candidates it holds.
    """
    if len(inline_corpus) > INLINE_CORPUS_CAP:
        raise ValueError("inline corpus exceeds the 256 MiB cap")
    potfile_path = Path(potfile_path)
    with potfile.PotfileWriter(potfile_path) as out:
        sock = _connect(endpoint, timeout)
        try:
            with sock:
                return _exchange(sock, plan, out, inline_corpus, tx_log)
        except ConnectionLostError as exc:
            raise ConnectionLostError(
                f"{exc}; partial candidate set retained at {potfile_path}",
                out.pairs_written) from None


def _exchange(sock: socket.socket, plan: Plan, out: potfile.PotfileWriter,
              inline_corpus: bytes, tx_log: bytearray | None
              ) -> engine.CrackReport:
    send_message(sock, HashInfoRequest(plan.algo_id), tx_log)
    ack = recv_message(sock)
    if isinstance(ack, ErrorReply):
        raise ServerError(ack.code, ack.text)
    if not isinstance(ack, HashInfoAck):
        raise ProtocolViolation("protocol-order",
                                f"expected hash info ack, got {ack!r}")
    if ack.digest_nibbles * 2 != len(plan.vector_hex):
        raise ProtocolViolation(
            "vector-length-mismatch",
            "server digest length disagrees with the plan")
    send_message(sock, JobSubmit(plan.algo_id, plan.vector_hex,
                                 plan.keyspace_descriptor, inline_corpus),
                 tx_log)
    while True:
        msg = recv_message(sock)
        if isinstance(msg, CandidateChunk):
            if len(msg.hits) and 2 * msg.hits.width != ack.digest_nibbles:
                raise ProtocolViolation(
                    "bad-candidate",
                    f"{msg.hits.width}-byte digests, the ack announced "
                    f"{ack.digest_nibbles} nibbles")
            try:
                out.write_hits(msg.hits)
            except ValueError as exc:
                raise ProtocolViolation("bad-candidate", str(exc)) from None
        elif isinstance(msg, JobDone):
            if msg.hit_count != out.pairs_written:
                raise ProtocolViolation(
                    "bad-count",
                    f"server reports {msg.hit_count} hits, sent "
                    f"{out.pairs_written}")
            # a genv plan stores keyspace_size 0: it has no |DS| to check
            if plan.keyspace_size and msg.hashed_count != plan.keyspace_size:
                raise ProtocolViolation(
                    "bad-count",
                    f"server reports {msg.hashed_count} candidates hashed, "
                    f"the plan's keyspace has {plan.keyspace_size}")
            elapsed = msg.elapsed_ms / 1000.0
            return engine.CrackReport(
                msg.hashed_count, out.pairs_written, elapsed,
                msg.hashed_count / max(elapsed, 1e-9), msg.skipped_count)
        elif isinstance(msg, ErrorReply):
            raise ServerError(msg.code, msg.text)
        else:
            raise ProtocolViolation(
                "protocol-order", f"unexpected mid-job {msg!r}")


#!/usr/bin/env python3
"""Dependency-free Python client for the campaign query daemon.

Speaks the raw wire protocol (ULPDFRM1 framing + the little-endian
payload layout of src/serve/protocol.cpp) with nothing but the standard
library, as a worked example of driving the daemon from outside the C++
tree. Sends one Query describing a grid, waits through the streamed
Progress frames, and writes the daemon's aggregate rows as CSV to
stdout — byte-identical to what `campaign query --csv` saves for the
same grid, which is exactly what CI asserts.

    python3 query_client.py --connect 127.0.0.1:7901 \
        --apps dwt --emts dream --vmin 0.6 --vmax 0.7 --step 0.05 \
        --reps 2 > rows.csv

The wire carries component names only, so the axis shorthands the
campaign CLI resolves are expanded here: `paper` (the default) for
--apps and --emts, and `paper` / `all` for --pathologies. `all` for
--apps or --emts needs the daemon's registries, which this client
cannot see, and is a usage error.

Exit codes mirror the campaign CLI: 0 success, 1 runtime/daemon error,
2 usage error.
"""

import argparse
import math
import socket
import struct
import sys

MAGIC = b"ULPDFRM1"
HEADER = struct.Struct("<8sIIQ")  # magic, type, reserved, payload length

MSG_QUERY = 32
MSG_RESULT = 33
MSG_PROGRESS = 34
MSG_ERROR = 35

PROTOCOL_VERSION = 2
CACHE_STATUS = {0: "cold", 1: "hit", 2: "gap-fill"}

# Record-generation front-end defaults; must match campaign::CampaignSpec.
FS_HZ = 250.0
DURATION_S = 8.2

# The shorthands of campaign::parse_{app,emt,pathology}_list, in the same
# order.
PAPER_APPS = "dwt,matrix_filter,cs,morph_filter,delineation"
PAPER_EMTS = "none,dream,ecc_secded"
ALL_PATHOLOGIES = "normal_sinus,bradycardia,tachycardia,pvc,afib,st_elevation"


class Payload:
    """Append-only little-endian payload writer (util::PayloadWriter)."""

    def __init__(self):
        self.buf = bytearray()

    def u8(self, v):
        self.buf += struct.pack("<B", v)

    def u32(self, v):
        self.buf += struct.pack("<I", v)

    def u64(self, v):
        self.buf += struct.pack("<Q", v)

    def f64(self, v):
        self.buf += struct.pack("<d", v)

    def string(self, s):
        raw = s.encode()
        self.u32(len(raw))
        self.buf += raw


class Reader:
    """Bounds-checked payload reader (util::PayloadReader)."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def _take(self, n):
        if self.pos + n > len(self.buf):
            raise RuntimeError("malformed frame: truncated payload")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self._take(1))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def blob(self):
        return self._take(self.u64())

    def string(self):
        n = struct.unpack("<I", self._take(4))[0]
        return self._take(n).decode()


def snap(v):
    """The voltage-grid snap of CampaignSpec::voltage_range: round to
    1e-6 V, half away from zero (C++ std::round, not Python's
    round-half-even)."""
    return math.floor(v * 1e6 + 0.5) / 1e6 if v >= 0 else -snap(-v)


def voltage_range(vmin, vmax, step):
    if step <= 0 or vmax < vmin:
        raise ValueError("need step > 0, vmax >= vmin")
    count = int((vmax - vmin) / step + 1e-9) + 1
    return [snap(vmin + i * step) for i in range(count)]


def group_mask(axes):
    bits = {"record": 1, "app": 2, "emt": 4, "voltage": 8}
    mask = 0
    for axis in axes.split(","):
        if axis not in bits:
            raise ValueError(
                "--group axes: record, app, emt, voltage (got %s)" % axis
            )
        mask |= bits[axis]
    return mask


def split_list(value):
    """The non-empty elements of a comma list (util::split_list)."""
    return [item for item in value.split(",") if item]


def axis_names(flag, value, shorthands):
    """The names of one axis flag's comma list, shorthands expanded."""
    if value in shorthands:
        return shorthands[value].split(",")
    if value == "all":
        raise ValueError(
            "--%s all needs the daemon's registry, which this client "
            "cannot see; list the names" % flag
        )
    return split_list(value)


def encode_query(args):
    p = Payload()
    p.u32(PROTOCOL_VERSION)
    # The spec block (serve::encode_spec field order).
    apps = axis_names("apps", args.apps, {"paper": PAPER_APPS})
    p.u32(len(apps))
    for a in apps:
        p.string(a)
    emts = axis_names("emts", args.emts, {"paper": PAPER_EMTS})
    p.u32(len(emts))
    for e in emts:
        p.string(e)
    voltages = voltage_range(args.vmin, args.vmax, args.step)
    p.u32(len(voltages))
    for v in voltages:
        p.f64(v)
    pathologies = axis_names(
        "pathologies",
        args.pathologies,
        {"paper": ALL_PATHOLOGIES, "all": ALL_PATHOLOGIES},
    )
    records = [
        (pathology, float(noise))
        for noise in split_list(args.noise)
        for pathology in pathologies
    ]
    p.u32(len(records))
    for pathology, noise in records:
        p.string(pathology)
        p.f64(noise)
        p.u64(args.record_seed)
    p.u64(args.reps)
    p.u64(args.seed)
    p.string(args.ber_model)
    p.f64(FS_HZ)
    p.f64(DURATION_S)
    # The wants.
    p.u8(1 if args.store_out else 0)
    p.u8(1)  # want_rows: the CSV on stdout is the point
    p.u8(group_mask(args.group))
    return bytes(p.buf)


def read_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise RuntimeError("daemon closed the connection mid-frame")
        buf += chunk
    return bytes(buf)


def read_frame(sock):
    magic, ftype, _, length = HEADER.unpack(read_exact(sock, HEADER.size))
    if magic != MAGIC:
        raise RuntimeError("bad frame magic %r (not a ulpdream daemon?)" % magic)
    return ftype, read_frame_payload(sock, length)


def read_frame_payload(sock, length):
    return read_exact(sock, length) if length else b""


def connect(endpoint):
    if endpoint.startswith("unix:"):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(endpoint[len("unix:") :])
        return sock
    host, _, port = endpoint.rpartition(":")
    if not host:
        raise ValueError("--connect expects HOST:PORT or unix:/path")
    return socket.create_connection((host, int(port)))


def main():
    ap = argparse.ArgumentParser(
        description="query a ulpdream campaign daemon, CSV rows to stdout"
    )
    ap.add_argument("--connect", required=True, help="HOST:PORT or unix:/path")
    ap.add_argument("--apps", default="paper")
    ap.add_argument("--emts", default="paper")
    ap.add_argument("--vmin", type=float, default=0.5)
    ap.add_argument("--vmax", type=float, default=0.9)
    ap.add_argument("--step", type=float, default=0.05)
    ap.add_argument("--pathologies", default="normal_sinus")
    ap.add_argument("--noise", default="1")
    ap.add_argument("--record-seed", type=int, default=7)
    ap.add_argument("--reps", type=int, default=30)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--ber-model", default="log-linear")
    ap.add_argument("--group", default="record,app,emt,voltage")
    ap.add_argument("--store-out", help="save the columnar store bytes here")
    args = ap.parse_args()

    try:
        payload = encode_query(args)
    except ValueError as e:
        print("query_client: %s" % e, file=sys.stderr)
        return 2

    sock = connect(args.connect)
    sock.sendall(HEADER.pack(MAGIC, MSG_QUERY, 0, len(payload)) + payload)

    while True:
        ftype, body = read_frame(sock)
        r = Reader(body)
        if ftype == MSG_PROGRESS:
            done, total = r.u64(), r.u64()
            print("\r[query_client] %d/%d items" % (done, total),
                  end="", file=sys.stderr, flush=True)
        elif ftype == MSG_ERROR:
            print("query_client: daemon error: %s" % r.string(),
                  file=sys.stderr)
            return 1
        elif ftype == MSG_RESULT:
            status = CACHE_STATUS.get(r.u8(), "unknown")
            total, executed = r.u64(), r.u64()
            store = r.blob()
            rows_csv = r.string()
            print("\r[query_client] %s answer: %d of %d items executed"
                  % (status, executed, total), file=sys.stderr)
            if args.store_out:
                with open(args.store_out, "wb") as f:
                    f.write(store)
            sys.stdout.write(rows_csv)
            return 0
        else:
            print("query_client: unexpected frame type %d" % ftype,
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

"""The JSONL v1 trace writer: the one place a trace line is encoded.

:class:`repro.obs.tracer.JsonlSink` runs this file by path (``python
_jsonl_writer.py VERSION``, stdout on the trace file); it imports the
stdlib only.  stdin carries frames — a 4-byte little-endian length, then
a pickled list of ``(etype, channel, t_sim, t_wall, fields)`` tuples —
until a zero-length frame or EOF.  Each event is one line, byte for byte
``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of its schema
keys plus its fields.  SIGINT is ignored: only the process that started
the writer ends the trace.
"""

import json
import pickle
import signal
import sys


def main() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    version = int(sys.argv[1])
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    if json.encoder.c_make_encoder is None:  # no _json accelerator
        def chunks(doc, _level):
            return encoder.iterencode(doc)
    else:  # the C encoder that encoder.encode builds per call, built once
        chunks = json.encoder.c_make_encoder(
            {}, encoder.default, json.encoder.encode_basestring_ascii, None,
            encoder.key_separator, encoder.item_separator, True, False, True,
        )
    read, write = sys.stdin.buffer.read, sys.stdout.buffer.write
    while size := int.from_bytes(read(4), "little"):
        parts = []  # the whole batch, joined once
        for etype, channel, t_sim, t_wall, doc in pickle.loads(read(size)):
            doc["v"], doc["type"], doc["ch"] = version, etype, channel
            doc["t_sim"], doc["t_wall"] = t_sim, t_wall
            parts.extend(chunks(doc, 0))
            parts.append("\n")
        write("".join(parts).encode("ascii"))
    sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Valid inputs of the command-line tests, and edits of them.

`write_config` writes a run config, and `SMALL_SYNTH` and `SMALL_MODEL`
are the sections of a corpus and model small enough to synth, train and
infer in well under a second (the `pipeline` fixture of conftest.py).
`rewrite_header` and `payload_offsets` edit and locate a checkpoint's
bytes, and `set_at` sets a member of a JSON document by its path.
"""

import json
import math
import struct


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_SYNTH = {"num_videos": 4, "clips_min": 12, "clips_max": 20, "input_dim": 5,
               "seed": 3}
SMALL_MODEL = {"window_width": 8, "num_stages": 1, "num_layers": 3,
               "hidden_channels": 8}


def set_at(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def rewrite_header(path, edit):
    """Rewrite a checkpoint file after edit() has changed its header in place."""
    raw = path.read_bytes()
    header_len = struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12:12 + header_len])
    edit(header)
    new_header = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(new_header)) + new_header
                     + raw[12 + header_len:])


def payload_offsets(raw: bytes) -> dict:
    """Tensor name -> byte offset of its payload, from a checkpoint's header."""
    header_len = struct.unpack_from("<I", raw, 8)[0]
    offsets = {}
    offset = 12 + header_len
    for entry in json.loads(raw[12:12 + header_len])["tensors"]:
        offsets[entry["name"]] = offset
        offset += 8 * math.prod(entry["shape"])
    return offsets

"""A look at the bytes on the wire."""

import numpy as np

from asymsplit.protocol import Frame, FrameKind, decode_frame, encode_frame

# a tiny 1x2x8 residual: 16 bits -> 2 payload bytes
bits = np.array(
    [[[1, 0, 1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 1, 1, 1, 1]]], dtype=np.uint8
)
frame = Frame(FrameKind.RESIDUAL_BITS, frame_id=7, data=bits)
raw = encode_frame(frame)

print(f"frame: kind={frame.kind.wire_name} id={frame.frame_id} dims={bits.shape}")
print(f"encoded length: {len(raw)} bytes (22 header + {len(raw) - 22} payload)")

print("\nheader bytes:")
print(f"  magic    {raw[0:4]!r}")
print(f"  version  {raw[4]}")
print(f"  kind     {raw[5]}")
print(f"  id       {raw[6:10].hex()}  (little-endian u32)")
print(f"  c,h,w    {raw[10:14].hex()} {raw[14:18].hex()} {raw[18:22].hex()}")

print("\npayload bits are packed MSB-first:")
print(f"  row 0 {bits[0, 0].tolist()} -> 0x{raw[22]:02x}")
print(f"  row 1 {bits[0, 1].tolist()} -> 0x{raw[23]:02x}")

decoded = decode_frame(raw)
print(f"\nround trip ok: {np.array_equal(decoded.data, bits)}")

# float frames carry 8-byte floats, so the bit frame is 32x smaller than
# the same tensor as float32 and 64x smaller than what float frames carry
chw = 8 * 16 * 16
logits = Frame(FrameKind.LOGITS, 0, np.zeros((64, 4, 1)))
print(f"\nfull-size residual payload: {chw // 8} bytes vs {chw * 4} as float32 (x32)")

# cache-build sends a block of samples with consecutive ids as one frame:
# dims (b, c*h*w, 1), one header for all b rows
block = Frame(FrameKind.RESIDUAL_BLOCK, 0, np.zeros((128, chw, 1), np.uint8))
print(f"128 samples in one residual-block frame: {len(encode_frame(block))} bytes, "
      f"as 128 residual-bits frames: {128 * (22 + chw // 8)} bytes")

# a stage-2 batch of 64 over 4 classes: the public side's logits, then the
# private side's labels as uint16 class indices
labels = Frame(FrameKind.LABELS, 0, np.arange(64)[:, None, None] % 4)
print(f"a 64-row logits frame costs {len(encode_frame(logits))} bytes, "
      f"the batch's labels frame {len(encode_frame(labels))} bytes")

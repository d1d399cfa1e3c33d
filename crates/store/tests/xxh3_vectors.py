#!/usr/bin/env python3
"""Prints the XXH3-64 digests that `checksum.rs` checks
`kvs_store::block::checksum64` against, computed by libxxhash 0.8 through
ctypes:

    python3 crates/store/tests/xxh3_vectors.py > crates/store/tests/xxh3_vectors.txt

The library is loaded as `libxxhash.so.0` from the loader's path, or from
the path given as the one argument. XXH3's output is fixed since xxHash
0.8.0, so any 0.8 release prints the same table; another major or minor
version is refused.

The input is a prefix of the sanity buffer of xxHash's own self-test: byte
`i` is the top byte of `2654435761 * 11400714785074694797^i` modulo 2^64.
"""

import ctypes
import sys

PRIME32 = 2654435761
PRIME64 = 11400714785074694797
MASK = (1 << 64) - 1

LENGTHS = [*range(0, 301), *range(1000, 1101), *range(4090, 4201), 10007]
SEEDS = [0, 1, MASK, 0x9E3779B97F4A7C15]
# (a_len, b_len): the digest of buf[a_len:a_len + b_len] seeded with that of
# buf[:a_len], the two-part form every record in two parts is sealed with.
CHAINS = [(0, 0), (12, 0), (12, 34), (12, 229), (12, 4140), (241, 240), (4140, 4140)]


def sanity_buffer(length):
    out, gen = bytearray(length), PRIME32
    for i in range(length):
        out[i] = gen >> 56
        gen = (gen * PRIME64) & MASK
    return bytes(out)


def main():
    lib = ctypes.CDLL(sys.argv[1] if len(sys.argv) > 1 else "libxxhash.so.0")
    version = lib.XXH_versionNumber()
    if version // 100 != 8:
        sys.exit(f"libxxhash {version}: want a 0.8 release")
    xxh3 = lib.XXH3_64bits_withSeed
    xxh3.restype = ctypes.c_uint64
    xxh3.argtypes = [ctypes.c_char_p, ctypes.c_size_t, ctypes.c_uint64]

    buf = sanity_buffer(max(LENGTHS))
    print("# XXH3_64bits_withSeed of libxxhash 0.8, from xxh3_vectors.py.")
    print("# len, then the digest of the first len bytes of the sanity buffer")
    print("# under seeds " + ", ".join(f"{s:#x}" for s in SEEDS) + ".")
    for length in LENGTHS:
        digests = (xxh3(buf[:length], length, seed) for seed in SEEDS)
        print(length, *(f"{d:016x}" for d in digests))
    print("# chain a_len b_len digest: buf[a_len..a_len + b_len] seeded with")
    print("# the digest of buf[..a_len] under seed 0.")
    for a_len, b_len in CHAINS:
        first = xxh3(buf[:a_len], a_len, 0)
        digest = xxh3(buf[a_len : a_len + b_len], b_len, first)
        print("chain", a_len, b_len, f"{digest:016x}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Resolves tools/sigprof sample files into a table of leaf symbols.

    python3 tools/sigprof/resolve.py BINARY PROFILE... [--top N]

BINARY is the program that ran (its own samples are looked up in
`nm -C -n BINARY`), each PROFILE a `<prefix>.<pid>.txt` the sampler
wrote. Several profiles of the same binary are pooled: each file's
samples are mapped through its own object list, then counted together.
A sample in libc is named by the exported function it falls inside
(`nm -D -S --defined-only` of the libc the profile lists, each symbol
with its size) as `[libc] <name>`, and counted as `[libc, unexported]`
when it falls inside none (glibc's string functions, say, run bodies its
IFUNC resolvers pick at load time, which it does not export); as
`[libc]` when that libc cannot be read. Samples in the vDSO are counted
as `[vdso]`, those in any other shared object as `[<its file name>]`.
Prints the sample count, then the top N (default 25) symbols with their
share.
"""

import argparse
import bisect
import collections
import functools
import os
import subprocess
import sys


def read_profile(path):
    """The loaded objects (base, name, executable segments) and the IPs."""
    objects, ips, header = [], [], ""
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "ip":
                ips.append(int(rest, 16))
            elif kind == "obj":
                base, _, name = rest.partition(" ")
                objects.append((int(base, 16), name, []))
            elif kind == "seg":
                vaddr, memsz = rest.split()
                objects[-1][2].append((int(vaddr, 16), int(memsz, 16)))
            elif kind == "#":
                header = rest
    return objects, ips, header


def read_symbols(binary):
    """Sorted (address, name) of every text symbol of `binary`."""
    out = subprocess.run(
        ["nm", "-C", "-n", binary], check=True, capture_output=True, text=True
    ).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW" and parts[0]:
            symbols.append((int(parts[0], 16), parts[2]))
    if not symbols:
        sys.exit(f"resolve.py: no text symbols in {binary}")
    return symbols


@functools.cache
def read_exports(path):
    """Sorted (address, end, name) of every exported function of the shared
    object at `path`, one name per address (the one without a leading
    underscore, then the shortest); None when `nm` cannot read it."""
    try:
        out = subprocess.run(
            ["nm", "-D", "-S", "--defined-only", path],
            check=True, capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    named = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 4 or parts[2] not in "TtWw":
            continue
        addr, size, name = int(parts[0], 16), int(parts[1], 16), parts[3].split("@")[0]
        rank = (name.startswith("_"), len(name), name)
        if size and (addr not in named or rank < named[addr][0]):
            named[addr] = (rank, addr + size, name)
    return sorted((addr, end, name) for addr, (_, end, name) in named.items())


def is_libc(name):
    base = os.path.basename(name)
    return base.startswith("libc.so") or base.startswith("libc-")


def bucket(name):
    base = os.path.basename(name)
    if "vdso" in base:
        return "[vdso]"
    return f"[{base}]"


def libc_name(exports, offset):
    """The libc bucket of a sample `offset` bytes past libc's base."""
    if exports is None:
        return "[libc]"
    at = bisect.bisect_right(exports, (offset, float("inf"))) - 1
    if at >= 0 and offset < exports[at][1]:
        return f"[libc] {exports[at][2]}"
    return "[libc, unexported]"


def resolve(objects, ips, symbols):
    addrs = [a for a, _ in symbols]
    counts = collections.Counter()
    for ip in ips:
        owner = None
        for base, name, segs in objects:
            if any(base + v <= ip < base + v + n for v, n in segs):
                owner = (base, name)
                break
        if owner is None:
            counts["[unknown]"] += 1
        elif owner[1] == "[main]":
            at = bisect.bisect_right(addrs, ip - owner[0]) - 1
            counts[symbols[at][1] if at >= 0 else "[main, before the first symbol]"] += 1
        elif is_libc(owner[1]):
            counts[libc_name(read_exports(owner[1]), ip - owner[0])] += 1
        else:
            counts[bucket(owner[1])] += 1
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("profile", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    symbols = read_symbols(args.binary)
    counts, total = collections.Counter(), 0
    for path in args.profile:
        objects, ips, header = read_profile(path)
        print(f"# {path}: {header}")
        counts += resolve(objects, ips, symbols)
        total += len(ips)
    if not total:
        sys.exit(f"resolve.py: no samples in {' '.join(args.profile)}")
    print(f"# {total} samples")
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.2f} % {n:7d}  {name}")


if __name__ == "__main__":
    main()

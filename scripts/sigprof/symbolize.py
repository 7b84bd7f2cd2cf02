#!/usr/bin/env python3
"""Turn a sigprof profile (see sampler.c) into self-time and inclusive tables.

    python3 scripts/sigprof/symbolize.py queue.prof [--top N] [--keep-yardstick]
                                         [--callers N [--all]] [--under FN]

Every return address is mapped back to its ELF file (file offset from the
`r-xp` mapping, virtual address from `readelf -lW`) and symbolised with
`addr2line -f -C -i`, so inlined callees appear as frames of their own.
Frames of this repository are named `<crate>/src/<file>.rs: <fn>` from
their file and line, by reading the enclosing `fn` out of the source (run
the script where the program was built).

Tables, all in samples and per cent of the samples kept:

* where the leaf is: the program, libc, libm, ...;
* self time by *first project frame*: the innermost frame of a sample whose
  source file is not the Rust standard library's (`/rustc/...`,
  `/rust/deps/...`), so a tick inside `malloc`, `memcpy`, `exp` or
  `alloc::vec` is charged to the project function that called it, with the
  share of each entry spent in libc/libm beside it; and the same summed by
  source file, which is the layer view;
* inclusive time by project function: samples with the function anywhere on
  the stack (recursion counted once);
* with --callers N, call chains: the leaf and the first N project frames
  above it as one entry (`realloc <- on_sample <- timer <- ...`), over the
  samples whose leaf is outside the program, or over every sample with
  --all. Self time says which function asked for the `realloc`; the chain
  says which event it was asked for.

With --under FN every table covers only the samples with FN on the stack
(`node_agent.rs: answer`, or any suffix of a project frame's name after a
`/`): the sub-tree view of one function, in per cent of all samples kept,
so its entries add up to FN's inclusive share.

Samples with a frame under `yardstick` (stackbench's calibration laps, not
the workload) are dropped unless --keep-yardstick is given.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")
STD = ("/rustc/", "/rust/deps/")  # where the standard library was built
FN = re.compile(
    r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*fn\s+(\w+)"
)
_sources = {}


def enclosing_fn(path, line):
    """The `fn` whose body holds `path:line`, read from the source itself.

    `addr2line -i` gives every frame's file and line reliably but names the
    innermost inlined frame after the symbol that *contains* it, and names
    inlined and called copies of one function differently; the source does
    neither. A closure is charged to the function it is written in."""
    lines = _sources.get(path)
    if lines is None:
        try:
            with open(path, errors="replace") as f:
                lines = f.read().splitlines()
        except OSError:
            lines = []
        _sources[path] = lines
    if not 0 < line <= len(lines):
        return None
    # The line itself if it opens a function, else the nearest `fn` above
    # that is indented less: a line outside every body (a `#[derive]`)
    # finds none and keeps addr2line's name.
    indent = len(lines[line - 1]) - len(lines[line - 1].lstrip())
    indent += lines[line - 1].lstrip().startswith("}")  # a body's last line
    for text in reversed(lines[:line]):
        found = FN.match(text)
        if found and (text is lines[line - 1] or len(text) - len(text.lstrip()) < indent):
            return found.group(1)
    return None


class Mapping:
    def __init__(self, start, end, offset, path):
        self.start, self.end, self.offset, self.path = start, end, offset, path
        self.segments = None  # [(file offset, vaddr, file size)] of PT_LOAD

    def vaddr(self, addr):
        """Virtual address inside the ELF file of a runtime address."""
        file_offset = addr - self.start + self.offset
        if self.segments is None:
            self.segments = load_segments(self.path)
        for seg_offset, seg_vaddr, seg_size in self.segments:
            if seg_offset <= file_offset < seg_offset + seg_size:
                return file_offset - seg_offset + seg_vaddr
        return None


def load_segments(path):
    out = subprocess.run(
        ["readelf", "-lW", path], capture_output=True, text=True, check=False
    ).stdout
    segments = []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 6 and fields[0] == "LOAD":
            segments.append((int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)))
    return segments


def parse(path):
    mappings, samples, info, program = [], [], "", ""
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "E":
                program = rest.strip().rsplit("/", 1)[-1]
            elif kind == "M":
                fields = rest.split()
                start, end = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) > 5 else "[anon]"
                mappings.append(Mapping(start, end, int(fields[2], 16), name))
            elif kind == "I":
                info = rest.strip()
            elif kind == "S":
                addrs = [int(x, 16) for x in rest.split()]
                samples.append((addrs[0], addrs[1:]))
    mappings.sort(key=lambda m: m.start)
    return mappings, samples, info, program


def program_frames(pc, frames):
    """The interrupted program's stack, leaf first: `backtrace()` output minus
    the signal handler and trampoline above the interrupted pc."""
    if pc in frames:
        return frames[frames.index(pc):]
    return frames[2:]


def symbolise(mappings, addresses, program):
    """{address: [(function, module, is_project), ...]} innermost first, with
    inlined callees expanded. The module is the mapped file's name; a frame
    is the project's when it is in the program and its source file is not
    under one of the standard library's build prefixes."""
    starts = [m.start for m in mappings]
    by_file = collections.defaultdict(list)
    names = {}
    for addr, is_leaf in addresses.items():
        i = bisect.bisect_right(starts, addr) - 1
        m = mappings[i] if i >= 0 and addr < mappings[i].end else None
        module = m.path.rsplit("/", 1)[-1] if m else "unmapped"
        vaddr = m.vaddr(addr) if m and m.path.startswith("/") else None
        if vaddr is None:
            names[addr] = [(f"[{module}]", module, False)]
            continue
        # A return address points after the call; step back into it.
        by_file[m.path].append((addr, vaddr if is_leaf else vaddr - 1, module))
    for path, triples in by_file.items():
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
            input="\n".join(hex(v) for _, v, _ in triples),
            capture_output=True,
            text=True,
            check=False,
        ).stdout.splitlines()
        # Per address: "0x<addr>", then (function, file:line) pairs.
        records, current = [], None
        for line in out:
            if line.startswith("0x") and " " not in line:
                current = []
                records.append(current)
            elif current is not None:
                current.append(line)
        for (addr, _, module), record in zip(triples, records):
            frames = []
            for function, where in zip(record[0::2], record[1::2]):
                source, _, line = where.split(" (")[0].rpartition(":")
                function = HASH.sub("", function)
                project = module == program and source != "??" and not source.startswith(STD)
                if project:
                    name = enclosing_fn(source, int(line)) if line.isdigit() else None
                    function = f"{'/'.join(source.split('/')[-3:])}: {name or function}"
                elif function == "??":
                    function = f"[{module}]"
                frames.append((function, module, project))
            names[addr] = frames or [(f"[{module}]", module, False)]
    return names


def table(title, rows, total, top, extra=None):
    print(f"\n{title}")
    print(f"{'samples':>8} {'%':>6}  " + ("in libs %  " if extra else "") + "function")
    for name, count in rows[:top]:
        line = f"{count:8d} {100.0 * count / total:6.1f}  "
        if extra:
            line += f"{100.0 * extra[name] / count:9.0f}   "
        print(line + name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--keep-yardstick", action="store_true")
    ap.add_argument("--callers", type=int, default=0, metavar="N",
                    help="also rank call chains: the leaf plus its first N project frames")
    ap.add_argument("--all", action="store_true",
                    help="with --callers: chains of every sample, not only of library leaves")
    ap.add_argument("--under", metavar="FN",
                    help="only the samples with project function FN on the stack")
    args = ap.parse_args()

    mappings, raw, info, program = parse(args.profile)
    stacks = [program_frames(pc, frames) for pc, frames in raw]
    addresses = {}
    for stack in stacks:
        for depth, addr in enumerate(stack):
            addresses[addr] = addresses.get(addr, False) or depth == 0
    names = symbolise(mappings, addresses, program)

    kept = []
    for stack in stacks:
        flat = [frame for addr in stack for frame in names[addr]]
        if flat and (args.keep_yardstick or not any("yardstick" in fn for fn, _, _ in flat)):
            kept.append(flat)
    total = len(kept)
    print(f"{args.profile}: {info}")
    print(f"{len(raw)} samples, {total} kept ({len(raw) - total} empty or under yardstick)")
    if not total:
        return 1
    if args.under:
        suffix = "/" + args.under
        kept = [flat for flat in kept
                if any(project and (fn == args.under or fn.endswith(suffix))
                       for fn, _, project in flat)]
        print(f"{len(kept)} samples ({100.0 * len(kept) / total:.1f} %) under {args.under}")
        if not kept:
            return 1

    leaf_module, leaf_function = collections.Counter(), collections.Counter()
    self_by, lib_share, inclusive, chains = (collections.Counter() for _ in range(4))
    for flat in kept:
        leaf, module, _ = flat[0]
        leaf_module[module] += 1
        if module != program:
            leaf_function[f"{leaf} [{module}]"] += 1
        owner = next((fn for fn, _, project in flat if project), None)
        if owner is None:
            owner = f"(no project frame on the stack; leaf {leaf} [{module}])"
        self_by[owner] += 1
        lib_share[owner] += module != program
        for fn in {fn for fn, _, project in flat if project}:
            inclusive[fn] += 1
        if args.callers and (args.all or module != program):
            # One entry per function: inlined helpers and closures of the
            # same `fn` are consecutive frames with one name.
            chain = [leaf if module == program else f"{leaf} [{module}]"]
            for fn, _, project in flat[1:]:
                if len(chain) > args.callers:
                    break
                if project and fn != chain[-1]:
                    chain.append(fn)
            chains[" <- ".join(chain)] += 1

    table("where the leaf frame is", leaf_module.most_common(), total, args.top)
    table("leaves outside the program", leaf_function.most_common(), total, args.top)
    table(
        "self time by first project frame (library leaves charged to their caller)",
        self_by.most_common(),
        total,
        args.top,
        extra=lib_share,
    )
    by_file = collections.Counter()
    for owner, count in self_by.items():
        by_file[owner.split(": ")[0]] += count
    table("self time by source file of the first project frame", by_file.most_common(), total, args.top)
    table("inclusive time by project function", inclusive.most_common(), total, args.top)
    if args.callers:
        scope = "every sample" if args.all else "library leaves"
        table(f"call chains, {scope}: leaf <- first {args.callers} project frames",
              chains.most_common(), total, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())

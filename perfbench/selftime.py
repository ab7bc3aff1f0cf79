"""Attribute the host self time of a gprof (-pg) run to simulator modules.

As in gprof's flat profile, a sample belongs to the function it was
taken in, and a function to the module of the ``src/`` directory (or
the benchmark) that defines it. gmon.out is read here rather than
through gprof so that two kinds of function can be seen through:

- Each histogram sample is resolved with ``addr2line -i`` to its inline
  chain. The outermost frame is the function itself; when its file
  belongs to no module, or to a helper shared by several modules (the
  ``SmallFunction`` trampolines that run every event callback,
  ``CacheArray``), the next frame inward that does belong to one owns
  the sample. A callback inlined into its trampoline is thereby charged
  to the component that wrote it, not to the event queue.
- A sample with no such frame (a standard-library function emitted out
  of line, such as a ``std::unordered_map`` lookup) is charged to the
  call sites that called its function, in proportion to the arc counts
  gmon.out recorded, walking further up while a call site is unowned.

Call counts are summed per module from the same arcs, by callee.

Only time spent in the executable's own text is sampled: time inside
shared libraries (the C library's allocator and ``mcount`` itself) is
not part of any share.
"""

import bisect
import re
import struct
import subprocess

# Source files with a module of their own below their top-level
# directory in src/.
SUBMODULES = {
    "DirectorySlice": "mem.dir",
    "L1Cache": "mem.l1",
    "Mshr": "mem.l1",
    "StridePrefetcher": "mem.l1",
    "MainMemory": "mem.memctrl",
    "FilterDirSlice": "coherence.fdir",
}
# The rest of these top-level directories.
SUBMODULE_REST = {"mem": "mem.other", "coherence": "coherence.ctrl"}
# Helpers shared by several modules, charged to the code they run or
# that runs them: SmallFunction invokes every event callback, and
# CacheArray backs both the L1s and the directory slices.
SHARED_HELPERS = {"CacheArray", "SmallFunction"}

_SOURCE = re.compile(
    r"(?:^|/)(?:src/([a-z]+)|(perfbench))/(\w+)\.(?:hh|cc)(?::\d+)?")
_ADDRESS = re.compile(r"0x[0-9a-f]+")
MAX_CALLER_DEPTH = 8


def module_of(path):
    """Module owning the source file @p path, or None."""
    m = _SOURCE.search(path)
    if not m:
        return None
    top, bench, stem = m.groups()
    if bench:
        return "bench"
    if stem in SHARED_HELPERS:
        return None
    return SUBMODULES.get(stem) or SUBMODULE_REST.get(top, top)


def read_gmon(path):
    """(samples, arcs) of a gmon.out: [(pc, count)], [(from, to, count)]."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"gmon":
        raise ValueError(f"{path}: not a gmon.out file")
    off = 20
    samples, arcs = [], []
    while off < len(data):
        tag = data[off]
        off += 1
        if tag == 0:
            low, high, n, _rate = struct.unpack_from("<QQII", data, off)
            off += 24 + 16
            counts = struct.unpack_from(f"<{n}H", data, off)
            off += 2 * n
            width = (high - low) / n
            samples += [(low + int(i * width), c)
                        for i, c in enumerate(counts) if c]
        elif tag == 1:
            arcs.append(struct.unpack_from("<QQI", data, off))
            off += 20
        else:
            raise ValueError(f"{path}: unexpected record tag {tag}")
    return samples, arcs


def function_starts(binary):
    """Sorted start addresses of the executable's text symbols."""
    out = subprocess.run(["nm", "-n", "--defined-only", binary],
                         capture_output=True, text=True, check=True).stdout
    starts = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] in "TtWw":
            starts.add(int(parts[0], 16))
    return sorted(starts)


def inline_chains(binary, addrs):
    """{addr: [file, ...]} per address, outermost (the function) first."""
    addrs = sorted(set(addrs))
    out = subprocess.run(
        ["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
        input="".join(f"0x{a:x}\n" for a in addrs),
        capture_output=True, text=True, check=True).stdout.splitlines()
    # Each address line is followed by (function, file:line) pairs.
    chains, cur, is_file = {}, [], False
    for line in out:
        if _ADDRESS.fullmatch(line):
            cur = chains.setdefault(int(line, 16), [])
            is_file = False
            continue
        if is_file:
            cur.insert(0, line)
        is_file = not is_file
    return chains


def attribute(binary, gmon_path):
    """Per-module self-time shares, call counts and the sample total."""
    samples, arcs = read_gmon(gmon_path)
    starts = function_starts(binary)

    def func_of(pc):
        i = bisect.bisect_right(starts, pc) - 1
        return starts[i] if i >= 0 else None

    chains = inline_chains(
        binary, [pc for pc, _ in samples] + [a[0] for a in arcs] +
        [a[1] for a in arcs])

    def owner(pc):
        for path in chains.get(pc, []):
            m = module_of(path)
            if m:
                return m
        return None

    callers = {}
    for frm, to, count in arcs:
        callers.setdefault(func_of(to), []).append((frm, count))

    def spread(func, weight, out, seen):
        """Charge @p weight of @p func's time to its callers."""
        edges = callers.get(func, [])
        total = sum(c for _, c in edges)
        if not total or len(seen) > MAX_CALLER_DEPTH or func in seen:
            out["unattributed"] = out.get("unattributed", 0.0) + weight
            return
        for frm, count in edges:
            w = weight * count / total
            m = owner(frm)
            if m:
                out[m] = out.get(m, 0.0) + w
            else:
                spread(func_of(frm), w, out, seen | {func})

    time = {}
    for pc, count in samples:
        m = owner(pc)
        if m:
            time[m] = time.get(m, 0.0) + count
        else:
            spread(func_of(pc), float(count), time, frozenset())
    calls = {}
    for _, to, count in arcs:
        m = owner(to) or "unattributed"
        calls[m] = calls.get(m, 0) + count

    total = sum(time.values())
    shares = {m: t / total for m, t in time.items()} if total else {}
    return shares, calls, int(sum(c for _, c in samples))


def rollup(per_module):
    """@p per_module plus a total for each module that has submodules."""
    out = dict(per_module)
    for parent in ("mem", "coherence"):
        out[parent] = sum(v for k, v in per_module.items()
                          if k.startswith(parent + "."))
    return out

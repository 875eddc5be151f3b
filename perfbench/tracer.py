"""Span tracing of the sigdesign package from outside it.

`install()` wraps the public functions of every sigdesign module (plus
`SignatureMatrix` validation) so that each call records a span: name,
parent span, start and end.  A wrapped name is replaced in every sigdesign
module that holds it, which covers modules that imported it by name
(`from .model import build_constellation`).

`_rng.map_blocks` is wrapped specially: each block it runs gets a span
whose parent is the enclosing `map_blocks` span, also on worker threads,
and that span is a continuation of the caller's layer.  The block function
is the caller's code (the density or decode kernel), so its self time is
credited to the caller (`capacity.estimate_capacity`, `ber.simulate_ber`),
while `rng.map_blocks` keeps only the pool's own time.

Spans stay in memory and are written out once, by `dump()`.  `analyse()`
turns them into per-layer calls, inclusive time and self time.  Self time
is the wall time during which a span was running with no child running;
when spans on several threads run at once, that time is shared equally
between them, so the self times of all spans add up to the traced wall
time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

MODULES = ("_rng", "model", "capacity", "ber", "criteria", "ga", "baselines", "cli")

_clock = time.perf_counter
_ids = itertools.count()
_local = threading.local()
_names: list[str] = []
_name_index: dict[str, int] = {}
# List appends are atomic, so worker threads record without a lock.
_events: list[tuple] = []  # (time, span id, is_start)
_meta: dict[int, tuple] = {}  # span id -> (name index, parent id, continuation, n)
_counts: list[tuple] = []  # (counter, value), summed by analyse()


def _name_id(name: str) -> int:
    if name not in _name_index:
        _name_index[name] = len(_names)
        _names.append(name)
    return _name_index[name]


def _open(name_id: int, cont: bool = False, n: int = -1) -> tuple[int, int]:
    sid = next(_ids)
    parent = getattr(_local, "span", -1)
    _meta[sid] = (name_id, parent, cont, n)
    _local.span = sid
    _events.append((_clock(), sid, True))
    return sid, parent


def _close(sid: int, parent: int) -> None:
    _events.append((_clock(), sid, False))
    _local.span = parent


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1].lstrip("_")


def _hooks(block: int) -> dict:
    """Per-function counters derived from argument sizes (computed, not measured).

    Each hook gets arg(name), which reads one argument of the call, and
    returns the user count n to tag the span with, or -1.
    """

    def mc(rows_param, counter):
        def hook(arg):
            a, rows = arg("A"), arg(rows_param)
            _counts.append(("rng.rows_kept", rows))
            _counts.append((counter, -(-rows // block) * block * 2**a.n))
            return a.n
        return hook

    def pairs(arg):
        size = arg("cons").points.shape[0]
        _counts.append(("criteria.pairs", size * (size - 1) // 2))
        return -1

    return {
        "capacity.estimate_capacity": mc("samples", "capacity.density_pairs"),
        "ber.simulate_ber": mc("blocks", "ber.decode_pairs"),
        "criteria.min_distance": pairs,
        "criteria.q_distance": pairs,
        "criteria.exp_distance": pairs,
        "ber.union_bound": pairs,
        "criteria.fitness": lambda arg: arg("A").n,
    }


def _wrap(fn, name: str, hook=None):
    name_id = _name_id(name)
    if hook is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = _open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                _close(sid, parent)
        return traced

    params = inspect.signature(fn).parameters
    where = {p: (i, params[p].default) for i, p in enumerate(params)}

    @functools.wraps(fn)
    def traced_counted(*args, **kwargs):
        def arg(p):
            i, default = where[p]
            return args[i] if i < len(args) else kwargs.get(p, default)

        sid, parent = _open(name_id, n=hook(arg))
        try:
            return fn(*args, **kwargs)
        finally:
            _close(sid, parent)
    return traced_counted


def _wrap_map_blocks(fn):
    name_id = _name_id("rng.map_blocks")

    @functools.wraps(fn)
    def traced_map_blocks(block_fn, n_blocks):
        owner = _meta.get(getattr(_local, "span", -1), (_name_id("cli.main"),))[0]
        sid, parent = _open(name_id)

        def block(b):
            outer = getattr(_local, "span", -1)
            _local.span = sid  # worker threads start with no current span
            bid, _ = _open(owner, cont=True)
            try:
                return block_fn(b)
            finally:
                _close(bid, sid)
                _local.span = outer

        try:
            return fn(block, n_blocks)
        finally:
            _close(sid, parent)
    return traced_map_blocks


def block_size() -> int:
    """Rows per Monte-Carlo block (sigdesign._rng.BLOCK)."""
    return getattr(sys.modules.get("sigdesign._rng"), "BLOCK", 4096)


def install() -> dict:
    """Wrap the package's public functions; returns {name: patched sites}."""
    import sigdesign
    from sigdesign import model

    mods = [sys.modules[f"sigdesign.{name}"] for name in MODULES if f"sigdesign.{name}" in sys.modules]
    rng = sys.modules.get("sigdesign._rng")
    hooks = _hooks(block_size())
    replace = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{_layer(mod.__name__)}.{attr}"
            if obj is getattr(rng, "map_blocks", None):
                replace[obj] = (name, _wrap_map_blocks(obj))
            else:
                replace[obj] = (name, _wrap(obj, name, hooks.get(name)))
    sites: dict[str, int] = {}
    holders = [sigdesign] + [m for k, m in sys.modules.items() if k.startswith("sigdesign.")]
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replace:
                name, wrapper = replace[obj]
                setattr(mod, attr, wrapper)
                sites[name] = sites.get(name, 0) + 1
    cls = model.SignatureMatrix
    cls.__post_init__ = _wrap(cls.__post_init__, "model.SignatureMatrix")
    sites["model.SignatureMatrix"] = 1
    return sites


def dump(path: str) -> None:
    """Write the recorded spans and counters to an .npz file."""
    ids = np.fromiter(_meta.keys(), dtype=np.int64, count=len(_meta))
    meta = np.array(list(_meta.values()), dtype=np.int64).reshape(-1, 4)
    ev = np.array(_events, dtype=float).reshape(-1, 3)
    counts: dict[str, int] = {}
    for key, value in _counts:
        counts[key] = counts.get(key, 0) + int(value)
    np.savez(
        path,
        ids=ids,
        meta=meta,
        ev_t=ev[:, 0],
        ev_sid=ev[:, 1].astype(np.int64),
        ev_start=ev[:, 2].astype(bool),
        names=np.array(json.dumps(_names)),
        counts=np.array(json.dumps(counts)),
    )


def analyse(path: str) -> dict:
    """Per-name calls, inclusive time and self time from a dumped trace.

    Returns {"layers": {name: {"calls", "s", "self_s", "by_n"}}, "counts",
    "busy_s", "self_total_s"}.  Continuation spans (map_blocks blocks)
    add self time to their layer but no calls and no inclusive time;
    their durations sum to busy_s.
    """
    z = np.load(path)
    names = json.loads(str(z["names"]))
    ids, meta = z["ids"], z["meta"]
    size = int(ids.max()) + 1 if len(ids) else 0
    name_of = np.full(size, -1)
    parent = np.full(size, -1)
    cont = np.zeros(size, dtype=bool)
    tag = np.full(size, -1)
    name_of[ids], parent[ids], cont[ids], tag[ids] = meta[:, 0], meta[:, 1], meta[:, 2] != 0, meta[:, 3]
    start = np.zeros(size)
    end = np.zeros(size)
    ev_t, ev_sid, ev_start = z["ev_t"], z["ev_sid"], z["ev_start"]
    start[ev_sid[ev_start]] = ev_t[ev_start]
    end[ev_sid[~ev_start]] = ev_t[~ev_start]

    self_t = [0.0] * size
    children = [0] * size
    active = [False] * size
    leaves: set[int] = set()
    prev = ev_t[0] if len(ev_t) else 0.0
    for t, sid, is_start in zip(ev_t.tolist(), ev_sid.tolist(), ev_start.tolist()):
        if t > prev:
            if leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_t[leaf] += share
            prev = t
        p = parent[sid]
        if is_start:
            if p >= 0 and active[p]:
                children[p] += 1
                leaves.discard(p)
            active[sid] = True
            leaves.add(sid)
        else:
            active[sid] = False
            leaves.discard(sid)
            if p >= 0 and active[p]:
                children[p] -= 1
                if children[p] == 0:
                    leaves.add(p)

    self_arr = np.asarray(self_t)
    dur = end - start
    layers = {}
    for i, name in enumerate(names):
        own = (name_of == i) & ~cont
        mine = name_of == i
        by_n = {}
        for n in sorted(set(tag[own].tolist()) - {-1}):
            sel = own & (tag == n)
            by_n[int(n)] = {"calls": int(sel.sum()), "s": float(dur[sel].sum())}
        layers[name] = {
            "calls": int(own.sum()),
            "s": float(dur[own].sum()),
            "self_s": float(self_arr[mine].sum()),
            "by_n": by_n,
        }
    return {
        "layers": layers,
        "counts": json.loads(str(z["counts"])),
        "busy_s": float(dur[cont].sum()),
        "self_total_s": float(self_arr.sum()),
    }

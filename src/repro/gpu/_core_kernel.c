/* Compiled chip side of one Accelerator: its SIMT cores (see
 * repro/gpu/cluster.py), its memory nodes (see repro/mem/nodes.py) and,
 * when it is a PerfectNetwork or BandwidthLimitedNetwork, its network
 * (see repro/noc/ideal.py).
 *
 * A line-for-line port of the SIMT core side over flat C state:
 * SimtCore.step with _issue_global and its stall memo, SimtCore.on_reply,
 * RoundRobinWarpScheduler.pick_or_wake, the L1's SetAssociativeCache
 * (contains, access, fill), MshrFile (lookup, allocate, complete) and
 * SyntheticKernel.next_instruction with its per-warp address streams and
 * their MT19937 generators (CPython's _randommodule.c: init_by_array,
 * genrand_uint32, random(), and random.py's _randbelow and randint).
 * The Cluster object owns every array and frees them when it is
 * collected; it holds no Python references between calls.
 *
 * And of the memory side: MemoryController (on_packet, icnt_step with
 * its reply drain, input processing and write-back drain, _dram_done),
 * its L2 bank (the same SetAssociativeCache as the L1) and GddrChannel
 * (enqueue, step with FR-FCFS issue, bank timing and completion), with
 * two idle gates of its own: the MC idle tick and the channel's
 * next_event.  On a Python network the Memory object holds the request
 * and reply packets, each MC's node id and inject callable and the reply
 * factory between calls, so it takes part in cycle collection.
 *
 * And of the ideal networks: the Ideal object takes a chip's network
 * over, with its core cluster and memory side.  Packets are then records
 * (Rec: kind, MemoryToken, MC, timestamps), never Python objects: the
 * cluster routes each request as AddressMap does onto its core's
 * outbound FIFO, the network's step drains those FIFOs (the chip loop's
 * outbound loop, try_inject) and delivers its queue (PerfectNetwork.step,
 * or BandwidthLimitedNetwork.step under its flit allowance) into the
 * MCs' input pipelines and the cluster's reply path, and the MCs offer
 * their replies to it.  It keeps the network's NetworkStats, histograms
 * included.  Exports return records as tuples for Python to turn into
 * packets.
 *
 * Module functions:
 *   new(config, program, fractions, warp_seeds, region_seeds) -> Cluster
 *   memory(mc, dram, nodes, injects, factory, request_class) -> Memory
 *   ideal(cluster, memory, network) -> Ideal   (see kernel_ideal)
 *   mt_sample(seed, ops) -> list   draws of one generator (tests)
 * A record, as exported: (kind, core, mc, line, local_addr, created,
 * injected, ejected), kind 0 a read request, 1 a write request, 2 a
 * reply; core and mc are indices, timestamps -1 until set.
 * Cluster methods:
 *   step(first_cycle, ticks) -> [(core, line, cycle), ...] or None
 *       one call per interconnect cycle: core cycles first_cycle ..
 *       first_cycle + ticks - 1, each stepping every core whose wake is
 *       due, in core order; returns the read requests in issue order
 *       (None on an ideal network, which queues them as records);
 *   reply(core, line, cycle) -> write-back line, or -1
 *       a read reply: MSHR complete, L1 fill, waiter release; on an ideal
 *       network the write-back joins the core's FIFO and -1 is returned;
 *       raises KeyError, writing nothing, if the line has no MSHR entry;
 *   finished() -> bool   every warp finished, every MSHR file empty and
 *       every outbound FIFO drained;
 *   counters() -> (retired, l1 hits, l1 accesses) over every core;
 *   export(core) -> tuple   the core's counters, wake, issue-busy time,
 *       scheduler pointer, warps, MSHR entries and outbound records (None
 *       on a Python network);
 *   next_instruction(core, warp) -> None or (kind, lines, active)
 *       draw the warp's next instruction without issuing it (tests);
 *   stale   True once stepped, given a reply or drawn from since Python
 *       last cleared it (after an export).
 * Memory methods (each refuses to run inside another's callback):
 *   request(mc, packet, cycle)   the MC's ejection handler: checks the
 *       packet, then queues it for its L2 lookup; raises, queueing
 *       nothing, for a non-request packet or a payload without an
 *       in-range int local_addr, and on an ideal network;
 *   step(cycle, first_mclk, ticks)   one call per interconnect cycle:
 *       every MC in index order (or its idle tick), then memory cycles
 *       first_mclk .. first_mclk + ticks - 1, each stepping every due
 *       channel in index order (the others take their idle tick); on a
 *       Python network replies are built by factory(node, request,
 *       cycle) and offered by inject(reply, cycle), and an exception from
 *       either propagates with the reply, or the request it is for, still
 *       queued; on an ideal network they are records, and offered to it;
 *   idle() -> bool   no MC holds a request, reply or write-back;
 *   counters() -> (blocked, cycles, DRAM busy, DRAM pending, row hits,
 *       row accesses, L2 hits, L2 accesses) over every MC;
 *   export() -> [tuple, ...]   per MC its counters, queues and channel;
 *   stale   True once stepped or given a request since the last export.
 * Ideal methods:
 *   step(cycle)   one call per interconnect cycle, between the cluster's
 *       and the memory side's: every core's outbound FIFO in core order,
 *       then the queue in order, as far as the allowance reaches;
 *   idle() -> bool   the queue is empty;
 *   export() -> tuple   the clock, allowance and NetworkStats;
 *   queued() -> tuple   the queue's records, in delivery order;
 *   cycle, stale   the clock; True once stepped or offered a reply since
 *       the last export.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <structmember.h>

#define LAYOUT 4
#define NEVER ((int64_t)1 << 62)
#define MAX_LINES 32                /* lines of one warp instruction */
#define LINE_BYTES 64               /* the generator's line size */

enum { K_ALU, K_SHARED, K_LOAD, K_STORE };

/* -- MT19937, as CPython's _randommodule.c ------------------------------ */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t s[MT_N];
    int32_t index;
} Mt;

static void
mt_init_genrand(Mt *m, uint32_t seed)
{
    uint32_t *mt = m->s;
    int i;
    mt[0] = seed;
    for (i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
    m->index = MT_N;
}

/* random.Random(seed) for an int 0 <= seed < 2**64: the absolute value
 * split into 32-bit words from the right, at least one, and
 * init_by_array over them. */
static void
mt_seed(Mt *m, uint64_t seed)
{
    uint32_t key[2];
    size_t len = seed >> 32 ? 2 : 1;
    size_t i = 1, j = 0, k;
    uint32_t *mt = m->s;
    key[0] = (uint32_t)seed;
    key[1] = (uint32_t)(seed >> 32);
    mt_init_genrand(m, 19650218U);
    for (k = MT_N > len ? MT_N : len; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= len)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
}

static uint32_t
mt_next(Mt *m)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = m->s;
    uint32_t y;
    if (m->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        m->index = 0;
    }
    y = mt[m->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random() */
static double
mt_random(Mt *m)
{
    uint32_t a = mt_next(m) >> 5, b = mt_next(m) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random._randbelow_with_getrandbits(n) for 1 <= n < 2**32: k is
 * n.bit_length() (not that of n - 1), getrandbits(k) the top k bits of
 * one word, redrawn while >= n. */
static uint32_t
mt_below(Mt *m, uint32_t n)
{
    int k = 0;
    uint32_t r, v = n;
    while (v) {
        k++;
        v >>= 1;
    }
    do
        r = mt_next(m) >> (32 - k);
    while (r >= n);
    return r;
}

/* random.randint(a, b) = randrange(a, b + 1) = a + _randbelow(b - a + 1) */
static int32_t
mt_randint(Mt *m, int32_t a, int32_t b)
{
    return a + (int32_t)mt_below(m, (uint32_t)(b - a + 1));
}

/* -- state ---------------------------------------------------------------- */

static PyObject *
new_ref(PyObject *o)
{
    Py_INCREF(o);
    return o;
}

static void *
zeroed(size_t count, size_t size)
{
    void *p;
    if (count && size > SIZE_MAX / count)
        return PyErr_NoMemory();
    p = PyMem_Calloc(count ? count : 1, size);
    if (!p)
        PyErr_NoMemory();
    return p;
}

/* A growable ring of fixed-size items: a core's outbound FIFO, an MC's
 * deques and an ideal network's queue. */
typedef struct {
    char *buf;
    int64_t head, n, cap;
} Ring;

static void *
ring_at(Ring *r, size_t size, int64_t k)
{
    return r->buf + (size_t)((r->head + k) % r->cap) * size;
}

/* Room for one more item; -1 (MemoryError) if the ring cannot grow. */
static int
ring_reserve(Ring *r, size_t size)
{
    int64_t cap, k;
    char *buf;
    if (r->n < r->cap)
        return 0;
    cap = r->cap ? 2 * r->cap : 8;
    if (!(buf = zeroed(cap, size)))
        return -1;
    for (k = 0; k < r->n; k++)
        memcpy(buf + k * size, ring_at(r, size, k), size);
    PyMem_Free(r->buf);
    r->buf = buf;
    r->head = 0;
    r->cap = cap;
    return 0;
}

/* The new tail slot (after ring_reserve). */
static void *
ring_push(Ring *r, size_t size)
{
    return ring_at(r, size, r->n++);
}

static void
ring_pop(Ring *r)
{
    r->head = (r->head + 1) % r->cap;
    r->n--;
}

/* Room for n items in a growable array; -1 (MemoryError) if it cannot
 * grow. */
static int
reserve(void **buf, int64_t *cap, int64_t n, size_t size)
{
    int64_t grown = *cap ? *cap : 8;
    void *p;
    if (n <= *cap)
        return 0;
    while (grown < n)
        grown *= 2;
    if (!(p = zeroed(grown, size)))
        return -1;
    if (*cap)
        memcpy(p, *buf, *cap * size);
    PyMem_Free(*buf);
    *buf = p;
    *cap = grown;
    return 0;
}

/* A packet on an ideal network, which builds no Python packet: its kind,
 * its MemoryToken (core index, line, MC-local address), its MC's index
 * and its timestamps (-1 until set). */
enum { R_READ, R_WRITE, R_REPLY };

typedef struct {
    int64_t line, local, created, injected, ejected;
    int32_t kind, core, mc;
} Rec;

typedef struct {
    int64_t tag;                    /* line address, -1 if the way is empty */
    int64_t lru;
    int32_t dirty;
} Line;

/* One SetAssociativeCache: a core's L1 or an MC's L2 bank.  A set's
 * ways are allocated at its first fill, as the reference's set dicts
 * fill, so an L2 that is mostly untouched costs little. */
typedef struct {
    Line **sets;                    /* nsets, each NULL or assoc ways */
    int64_t line_bytes, clock, version, hits, misses;
    int32_t nsets, assoc;
} Cache;

/* One MSHR entry; waiters are warp indices, -1 for a store. */
typedef struct {
    int64_t line;
    int32_t *waiters;
    int32_t nwait, cap, issued;
} Entry;

typedef struct {
    int64_t busy_until, wake;
    int64_t retired, issued, stalls, loads, stores;
    int64_t mshr_version, allocations, merges;
    int64_t base_line, phase;       /* the core's region, once placed */
    int32_t pointer, placed, nentries;
    Entry *entries;                 /* nentries live, in insertion order */
    Ring outbound;                  /* Rec: requests for an ideal network */
    Cache l1;
} Core;

typedef struct {
    int64_t ready_at, retired;
    int64_t drawn;                  /* instructions drawn from the stream */
    int64_t cursor;                 /* grid-stride position */
    int64_t memo_l1, memo_mshr;     /* versions at the last failed probe */
    int32_t pending;                /* outstanding load lines */
    int32_t finished, memo, seeded, has_instr;
    int32_t kind, active, nlines;   /* the instruction not yet issued */
    int32_t rstart, rlen;           /* recent-line ring */
} Warp;

typedef struct {
    PyObject_HEAD
    /* machine */
    int32_t ncores, nwarps, mshr_entries, max_merged;
    int64_t alu_lat, shared_lat, hit_lat, store_lat, issue_interval;
    /* program */
    double mem_fraction, shared_fraction, store_fraction, reuse, streaming;
    int32_t simd_full, act_lo, act_hi, div_hi, max_lines, window;
    int64_t region_lines, stride, ipw;
    /* state */
    uint64_t *warp_seeds, *region_seeds;
    int32_t nplaced;
    int64_t unfinished, outstanding;
    Core *cores;
    Warp *warps;                    /* core-major: core * nwarps + warp */
    Mt *mt;
    int64_t *recent;                /* window lines per warp */
    int64_t *lines;                 /* max_lines lines per warp */
    PyObject *out;                  /* requests of the running step */
    /* On an ideal network (set by ideal()): AddressMap's interleave and MC
     * count, and the records in the outbound FIFOs; the network, borrowed
     * (see Ideal). */
    int32_t routed, nmcs;
    int64_t interleave, queued;
    struct Ideal *net;
    char stale;
} Cluster;

/* -- address streams (SyntheticKernel) ------------------------------------ */

static void
place_region(Cluster *c, Core *core)
{
    Mt m;
    int64_t core_id = c->nplaced++;
    mt_seed(&m, c->region_seeds[core_id]);
    core->base_line = core_id * c->region_lines;
    core->phase = mt_below(&m, (uint32_t)c->region_lines);
    core->placed = 1;
}

static int64_t
next_line(Cluster *c, Core *core, int32_t w, int64_t g)
{
    Warp *wp = &c->warps[g];
    Mt *m = &c->mt[g];
    int64_t *ring = c->recent + g * c->window;
    int64_t index, line;
    if (wp->rlen && mt_random(m) < c->reuse) {
        int32_t k = (int32_t)mt_below(m, (uint32_t)wp->rlen);
        return ring[(wp->rstart + k) % c->window];
    }
    if (mt_random(m) < c->streaming) {
        index = (core->phase + w + wp->cursor * c->stride) % c->region_lines;
        wp->cursor++;
    }
    else
        index = mt_below(m, (uint32_t)c->region_lines);
    line = (core->base_line + index) * LINE_BYTES;
    if (c->window) {
        if (wp->rlen < c->window)
            ring[(wp->rstart + wp->rlen++) % c->window] = line;
        else {
            ring[wp->rstart] = line;
            wp->rstart = (wp->rstart + 1) % c->window;
        }
    }
    return line;
}

/* SyntheticKernel.next_instruction into the warp's instruction slot;
 * 0 when the warp's stream has ended. */
static int
next_instruction(Cluster *c, int32_t i, int32_t w)
{
    int64_t g = (int64_t)i * c->nwarps + w;
    Warp *wp = &c->warps[g];
    Core *core = &c->cores[i];
    Mt *m = &c->mt[g];
    int32_t j, n;
    if (c->ipw >= 0) {
        if (wp->drawn >= c->ipw)
            return 0;
        wp->drawn++;
    }
    if (!wp->seeded) {
        if (!core->placed)
            place_region(c, core);
        mt_seed(m, c->warp_seeds[g]);
        wp->seeded = 1;
    }
    wp->has_instr = 1;
    wp->nlines = 0;
    if (mt_random(m) >= c->mem_fraction)
        wp->kind = K_ALU;
    else if (mt_random(m) < c->shared_fraction)
        wp->kind = K_SHARED;
    else {
        int64_t *lines = c->lines + g * c->max_lines;
        n = 1;
        if (c->div_hi) {
            n = mt_randint(m, 1, c->div_hi);
            if (n > MAX_LINES)
                n = MAX_LINES;
        }
        for (j = 0; j < n; j++)
            lines[j] = next_line(c, core, w, g);
        wp->nlines = n;
        wp->active = c->simd_full ? 32 : mt_randint(m, c->act_lo, c->act_hi);
        wp->kind = mt_random(m) < c->store_fraction ? K_STORE : K_LOAD;
        return 1;
    }
    wp->active = c->simd_full ? 32 : mt_randint(m, c->act_lo, c->act_hi);
    return 1;
}

/* -- SetAssociativeCache (the L1 and the L2) and MshrFile ---------------- */

static int
cache_init(Cache *k, int32_t nsets, int32_t assoc, int64_t line_bytes)
{
    k->nsets = nsets;
    k->assoc = assoc;
    k->line_bytes = line_bytes;
    return (k->sets = zeroed(nsets, sizeof(Line *))) ? 0 : -1;
}

static void
cache_free(Cache *k)
{
    int32_t j;
    for (j = 0; k->sets && j < k->nsets; j++)
        PyMem_Free(k->sets[j]);
    PyMem_Free(k->sets);
}

/* The set of addr (addresses are never negative). */
static Line **
cache_set(Cache *k, int64_t addr)
{
    return &k->sets[(addr / k->line_bytes) % k->nsets];
}

/* The way holding addr's line, or NULL (contains, and access's probe). */
static Line *
cache_find(Cache *k, int64_t addr)
{
    int64_t line_addr = addr - addr % k->line_bytes;
    Line *set = *cache_set(k, addr);
    int32_t j;
    if (!set)
        return NULL;
    for (j = 0; j < k->assoc; j++)
        if (set[j].tag == line_addr)
            return &set[j];
    return NULL;
}

/* Allocate addr's set, if this is its first fill, so that cache_fill
 * cannot fail; -1 (MemoryError) if it cannot be allocated. */
static int
cache_reserve(Cache *k, int64_t addr)
{
    Line **set = cache_set(k, addr);
    int32_t j;
    if (*set)
        return 0;
    if (!(*set = zeroed(k->assoc, sizeof(Line))))
        return -1;
    for (j = 0; j < k->assoc; j++)
        (*set)[j].tag = -1;
    return 0;
}

/* access(addr) on a hit: count it and update the LRU clock. */
static void
cache_hit(Cache *k, Line *line)
{
    k->hits++;
    line->lru = ++k->clock;
}

/* fill(addr, dirty), after cache_reserve: the evicted dirty line, or
 * -1. */
static int64_t
cache_fill(Cache *k, int64_t addr, int dirty)
{
    int64_t line_addr = addr - addr % k->line_bytes;
    Line *set = *cache_set(k, addr);
    Line *slot = NULL, *victim = NULL;
    int64_t writeback = -1;
    int32_t j;
    k->clock++;
    k->version++;
    for (j = 0; j < k->assoc; j++) {
        Line *way = &set[j];
        if (way->tag == line_addr) {
            way->lru = k->clock;
            way->dirty = way->dirty || dirty;
            return -1;
        }
        if (way->tag < 0) {
            if (!slot)
                slot = way;
        }
        else if (!victim || way->lru < victim->lru)
            victim = way;
    }
    if (!slot) {                    /* full set: evict the LRU line */
        if (victim->dirty)
            writeback = victim->tag;
        slot = victim;
    }
    slot->tag = line_addr;
    slot->lru = k->clock;
    slot->dirty = dirty;
    return writeback;
}

static Entry *
mshr_lookup(Core *core, int64_t line)
{
    int32_t k;
    for (k = 0; k < core->nentries; k++)
        if (core->entries[k].line == line)
            return &core->entries[k];
    return NULL;
}

static int
add_waiter(Entry *e, int32_t waiter)
{
    if (e->nwait == e->cap) {
        int32_t cap = e->cap ? 2 * e->cap : 4;
        int32_t *grown = PyMem_Realloc(e->waiters, cap * sizeof(int32_t));
        if (!grown) {
            PyErr_NoMemory();
            return -1;
        }
        e->waiters = grown;
        e->cap = cap;
    }
    e->waiters[e->nwait++] = waiter;
    return 0;
}

/* allocate(line, waiter): callers have checked the entry count and the
 * merge limit. */
static Entry *
mshr_allocate(Cluster *c, Core *core, int64_t line, int32_t waiter)
{
    Entry *e = mshr_lookup(core, line);
    if (e)
        core->merges++;
    else {
        e = &core->entries[core->nentries++];
        e->line = line;
        e->nwait = 0;
        e->issued = 0;
        core->allocations++;
        c->outstanding++;
    }
    core->mshr_version++;
    return add_waiter(e, waiter) < 0 ? NULL : e;
}

/* _send_read_request or _send_write_request on an ideal network: a
 * record on the core's outbound FIFO, routed as AddressMap does. */
static int
queue_request(Cluster *c, int32_t i, int32_t kind, int64_t line,
              int64_t cycle)
{
    Ring *fifo = &c->cores[i].outbound;
    int64_t chunk = line / c->interleave;
    Rec *r;
    if (ring_reserve(fifo, sizeof(Rec)) < 0)
        return -1;
    r = ring_push(fifo, sizeof(Rec));
    r->kind = kind;
    r->core = i;
    r->mc = (int32_t)(chunk % c->nmcs);
    r->line = line;
    r->local = chunk / c->nmcs * c->interleave + line % c->interleave;
    r->created = cycle;
    r->injected = r->ejected = -1;
    c->queued++;
    return 0;
}

/* A read request: a record on an ideal network, else a row of the step's
 * result for Python to send. */
static int
emit_read(Cluster *c, int32_t i, int64_t line, int64_t cycle)
{
    PyObject *request;
    int rc;
    if (c->routed)
        return queue_request(c, i, R_READ, line, cycle);
    if (!c->out && !(c->out = PyList_New(0)))
        return -1;
    request = Py_BuildValue("(iLL)", i, (long long)line, (long long)cycle);
    if (!request)
        return -1;
    rc = PyList_Append(c->out, request);
    Py_DECREF(request);
    return rc;
}

/* -- the core step (SimtCore.step, _issue_global) ------------------------- */

/* 1 issued, 0 structural stall, -1 error. */
static int
issue_global(Cluster *c, int32_t i, int32_t w, int64_t cycle)
{
    Core *core = &c->cores[i];
    int64_t g = (int64_t)i * c->nwarps + w;
    Warp *wp = &c->warps[g];
    int64_t *lines = c->lines + g * c->max_lines;
    int64_t hits[MAX_LINES], misses[MAX_LINES];
    int32_t nh = 0, nm = 0, j, k, new_entries = 0, blocking = 0;
    int is_store = wp->kind == K_STORE;
    int64_t l1v = core->l1.version, mv = core->mshr_version;
    if (wp->memo && wp->memo_l1 == l1v && wp->memo_mshr == mv)
        return 0;
    /* One pass over the distinct lines, in first-appearance order. */
    for (j = 0; j < wp->nlines; j++) {
        int64_t line = lines[j];
        Entry *e;
        for (k = 0; k < j && lines[k] != line; k++)
            ;
        if (k < j)
            continue;
        if (cache_find(&core->l1, line)) {
            hits[nh++] = line;
            continue;
        }
        e = mshr_lookup(core, line);
        if (!e)
            new_entries++;
        else if (e->nwait >= c->max_merged)
            goto stall;
        misses[nm++] = line;
    }
    if (core->nentries + new_entries > c->mshr_entries)
        goto stall;
    for (j = 0; j < nh; j++) {
        Line *hit = cache_find(&core->l1, hits[j]);
        cache_hit(&core->l1, hit);
        if (is_store)
            hit->dirty = 1;
    }
    for (j = 0; j < nm; j++) {
        Entry *e;
        core->l1.misses++;
        e = mshr_allocate(c, core, misses[j], is_store ? -1 : w);
        if (!e)
            return -1;
        if (!e->issued) {
            e->issued = 1;
            if (emit_read(c, i, misses[j], cycle) < 0)
                return -1;
        }
        if (!is_store)
            blocking++;
    }
    if (is_store) {
        core->stores++;
        wp->ready_at = cycle + c->store_lat;
    }
    else {
        core->loads++;
        wp->pending += blocking;
        if (blocking == 0)
            wp->ready_at = cycle + c->hit_lat;
    }
    return 1;
stall:
    wp->memo = 1;
    wp->memo_l1 = l1v;
    wp->memo_mshr = mv;
    return 0;
}

static int
core_step(Cluster *c, int32_t i, int64_t cycle)
{
    Core *core = &c->cores[i];
    Warp *warps = c->warps + (int64_t)i * c->nwarps, *wp = NULL;
    int32_t n = c->nwarps, off, w = -1;
    int64_t wake = NEVER;
    if (core->busy_until > cycle) {
        core->wake = core->busy_until;
        return 0;
    }
    for (off = 0; off < n; off++) {
        int32_t k = core->pointer + off;
        Warp *x;
        if (k >= n)
            k -= n;
        x = &warps[k];
        if (x->finished || x->pending > 0)
            continue;
        if (x->ready_at <= cycle) {
            w = k;
            core->pointer = k + 1 == n ? 0 : k + 1;
            break;
        }
        if (x->ready_at < wake)
            wake = x->ready_at;
    }
    if (w < 0) {
        core->wake = wake;
        return 0;
    }
    wp = &warps[w];
    if (!wp->has_instr && !next_instruction(c, i, w)) {
        wp->finished = 1;
        c->unfinished--;
        core->wake = cycle + 1;
        return 0;
    }
    if (wp->kind == K_ALU)
        wp->ready_at = cycle + c->alu_lat;
    else if (wp->kind == K_SHARED)
        wp->ready_at = cycle + c->shared_lat;
    else {
        int rc = issue_global(c, i, w, cycle);
        if (rc < 0)
            return -1;
        if (rc == 0) {              /* structural stall: retry it later */
            core->stalls++;
            wp->ready_at = cycle + 1;
            core->wake = cycle + 1;
            return 0;
        }
    }
    wp->has_instr = 0;
    wp->retired += wp->active;
    core->retired += wp->active;
    core->issued++;
    core->busy_until = cycle + c->issue_interval;
    core->wake = core->busy_until;
    return 0;
}

/* -- Cluster methods ------------------------------------------------------ */

static int
check_core(Cluster *c, int i)
{
    if (i < 0 || i >= c->ncores) {
        PyErr_Format(PyExc_IndexError, "core %d out of range", i);
        return -1;
    }
    return 0;
}

static PyObject *
cluster_step(Cluster *c, PyObject *args)
{
    long long first;
    int ticks, t, i;
    PyObject *out;
    if (!PyArg_ParseTuple(args, "Li", &first, &ticks))
        return NULL;
    c->out = NULL;
    c->stale = 1;
    for (t = 0; t < ticks; t++) {
        int64_t cycle = first + t;
        for (i = 0; i < c->ncores; i++)
            if (c->cores[i].wake <= cycle && core_step(c, i, cycle) < 0) {
                Py_CLEAR(c->out);
                return NULL;
            }
    }
    out = c->out;
    c->out = NULL;
    if (!out)
        Py_RETURN_NONE;
    return out;
}

/* SimtCore.on_reply for a read of line: MSHR complete, L1 fill, waiter
 * release.  Returns the evicted dirty line for Python to send, or -1 (none,
 * or on an ideal network queued on the core's FIFO, created at cycle); -2
 * with an exception set, writing nothing, if the line has no MSHR entry or
 * memory runs out. */
static int64_t
core_reply(Cluster *c, int32_t i, int64_t line, int64_t cycle)
{
    int dirty = 0;
    int32_t j, k;
    Core *core = &c->cores[i];
    Entry *e = NULL, done;
    int64_t writeback;
    for (k = 0; k < core->nentries; k++)
        if (core->entries[k].line == line) {
            e = &core->entries[k];
            break;
        }
    if (!e) {                       /* MshrFile.complete's KeyError */
        char hex[24];
        snprintf(hex, sizeof hex, "%s0x%llx", line < 0 ? "-" : "",
                 (unsigned long long)(line < 0 ? -line : line));
        PyErr_Format(PyExc_KeyError, "no outstanding MSHR for line %s",
                     hex);
        return -2;
    }
    if (cache_reserve(&core->l1, line) < 0
            || (c->routed && ring_reserve(&core->outbound, sizeof(Rec)) < 0))
        return -2;
    c->stale = 1;
    /* complete: take the entry out, keeping the others in order; its
     * waiter buffer moves to the freed last slot for reuse. */
    done = *e;
    memmove(e, e + 1, (core->nentries - 1 - k) * sizeof(Entry));
    core->nentries--;
    core->entries[core->nentries].waiters = done.waiters;
    core->entries[core->nentries].cap = done.cap;
    core->mshr_version++;
    c->outstanding--;
    for (j = 0; j < done.nwait; j++)
        if (done.waiters[j] < 0)
            dirty = 1;
    writeback = cache_fill(&core->l1, line, dirty);
    if (writeback >= 0 && c->routed) {
        queue_request(c, i, R_WRITE, writeback, cycle);     /* reserved */
        writeback = -1;
    }
    for (j = 0; j < done.nwait; j++) {
        Warp *wp;
        if (done.waiters[j] < 0)
            continue;
        wp = &c->warps[(int64_t)i * c->nwarps + done.waiters[j]];
        if (--wp->pending < 0) {
            PyErr_SetString(PyExc_RuntimeError, "pending-load underflow");
            return -2;
        }
    }
    core->wake = 0;
    return writeback;
}

static PyObject *
cluster_reply(Cluster *c, PyObject *args)
{
    int i;
    long long line, cycle;
    int64_t writeback;
    if (!PyArg_ParseTuple(args, "iLL", &i, &line, &cycle)
            || check_core(c, i) < 0
            || (writeback = core_reply(c, i, line, cycle)) == -2)
        return NULL;
    return PyLong_FromLongLong(writeback);
}

static PyObject *
cluster_finished(Cluster *c, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(c->unfinished == 0 && c->outstanding == 0
                           && c->queued == 0);
}

static PyObject *
cluster_counters(Cluster *c, PyObject *Py_UNUSED(ignored))
{
    int64_t retired = 0, hits = 0, accesses = 0;
    int32_t i;
    for (i = 0; i < c->ncores; i++) {
        Core *core = &c->cores[i];
        retired += core->retired;
        hits += core->l1.hits;
        accesses += core->l1.hits + core->l1.misses;
    }
    return Py_BuildValue("(LLL)", (long long)retired, (long long)hits,
                         (long long)accesses);
}

static PyObject *
rec_tuple(Rec *r)
{
    return Py_BuildValue("(iiiLLLLL)", r->kind, r->core, r->mc,
                         (long long)r->line, (long long)r->local,
                         (long long)r->created, (long long)r->injected,
                         (long long)r->ejected);
}

/* The records of a ring, oldest first. */
static PyObject *
ring_records(Ring *ring)
{
    PyObject *out = PyTuple_New(ring->n);
    int64_t k;
    for (k = 0; out && k < ring->n; k++) {
        PyObject *row = rec_tuple(ring_at(ring, sizeof(Rec), k));
        if (!row)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, row);
    }
    return out;
}

static PyObject *
cluster_export(Cluster *c, PyObject *args)
{
    int i;
    int32_t w, k, j;
    Core *core;
    PyObject *warps = NULL, *entries = NULL, *outbound;
    if (!PyArg_ParseTuple(args, "i", &i) || check_core(c, i) < 0)
        return NULL;
    core = &c->cores[i];
    if (!(warps = PyTuple_New(c->nwarps)))
        goto error;
    for (w = 0; w < c->nwarps; w++) {
        Warp *wp = &c->warps[(int64_t)i * c->nwarps + w];
        PyObject *row = Py_BuildValue(
            "(LiLO)", (long long)wp->ready_at, wp->pending,
            (long long)wp->retired, wp->finished ? Py_True : Py_False);
        if (!row)
            goto error;
        PyTuple_SET_ITEM(warps, w, row);
    }
    if (!(entries = PyTuple_New(core->nentries)))
        goto error;
    for (k = 0; k < core->nentries; k++) {
        Entry *e = &core->entries[k];
        PyObject *waiters = PyTuple_New(e->nwait), *row;
        if (!waiters)
            goto error;
        for (j = 0; j < e->nwait; j++) {
            PyObject *v = PyLong_FromLong(e->waiters[j]);
            if (!v) {
                Py_DECREF(waiters);
                goto error;
            }
            PyTuple_SET_ITEM(waiters, j, v);
        }
        row = Py_BuildValue("(LON)", (long long)e->line,
                            e->issued ? Py_True : Py_False, waiters);
        if (!row)
            goto error;
        PyTuple_SET_ITEM(entries, k, row);
    }
    if (!c->routed)
        outbound = new_ref(Py_None);
    else if (!(outbound = ring_records(&core->outbound)))
        goto error;
    return Py_BuildValue(
        "(LLLLLLLiLLLLNNN)", (long long)core->retired,
        (long long)core->issued, (long long)core->stalls,
        (long long)core->loads, (long long)core->stores,
        (long long)core->wake, (long long)core->busy_until, core->pointer,
        (long long)core->l1.hits, (long long)core->l1.misses,
        (long long)core->allocations, (long long)core->merges,
        warps, entries, outbound);
error:
    Py_XDECREF(warps);
    Py_XDECREF(entries);
    return NULL;
}

static PyObject *
cluster_next_instruction(Cluster *c, PyObject *args)
{
    int i, w;
    int64_t g;
    Warp *wp;
    PyObject *lines;
    int32_t j;
    if (!PyArg_ParseTuple(args, "ii", &i, &w) || check_core(c, i) < 0)
        return NULL;
    if (w < 0 || w >= c->nwarps) {
        PyErr_Format(PyExc_IndexError, "warp %d out of range", w);
        return NULL;
    }
    c->stale = 1;
    if (!next_instruction(c, i, w))
        Py_RETURN_NONE;
    g = (int64_t)i * c->nwarps + w;
    wp = &c->warps[g];
    if (!(lines = PyTuple_New(wp->nlines)))
        return NULL;
    for (j = 0; j < wp->nlines; j++) {
        PyObject *v = PyLong_FromLongLong(c->lines[g * c->max_lines + j]);
        if (!v) {
            Py_DECREF(lines);
            return NULL;
        }
        PyTuple_SET_ITEM(lines, j, v);
    }
    return Py_BuildValue("(iNi)", wp->kind, lines, wp->active);
}

static void ideal_drop_cluster(struct Ideal *n);

static void
cluster_dealloc(Cluster *c)
{
    int32_t i, k;
    if (c->net)
        ideal_drop_cluster(c->net);
    if (c->cores) {
        for (i = 0; i < c->ncores; i++) {
            Core *core = &c->cores[i];
            if (core->entries)
                for (k = 0; k < c->mshr_entries; k++)
                    PyMem_Free(core->entries[k].waiters);
            PyMem_Free(core->entries);
            PyMem_Free(core->outbound.buf);
            cache_free(&core->l1);
        }
    }
    PyMem_Free(c->cores);
    PyMem_Free(c->warps);
    PyMem_Free(c->mt);
    PyMem_Free(c->recent);
    PyMem_Free(c->lines);
    PyMem_Free(c->warp_seeds);
    PyMem_Free(c->region_seeds);
    Py_XDECREF(c->out);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyMethodDef cluster_methods[] = {
    {"step", (PyCFunction)cluster_step, METH_VARARGS, NULL},
    {"reply", (PyCFunction)cluster_reply, METH_VARARGS, NULL},
    {"finished", (PyCFunction)cluster_finished, METH_NOARGS, NULL},
    {"counters", (PyCFunction)cluster_counters, METH_NOARGS, NULL},
    {"export", (PyCFunction)cluster_export, METH_VARARGS, NULL},
    {"next_instruction", (PyCFunction)cluster_next_instruction,
     METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef cluster_members[] = {
    {"stale", T_BOOL, offsetof(Cluster, stale), 0, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject ClusterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_core_kernel.Cluster",
    .tp_basicsize = sizeof(Cluster),
    .tp_dealloc = (destructor)cluster_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_methods = cluster_methods,
    .tp_members = cluster_members,
};

/* -- the memory side (MemoryController, GddrChannel) ----------------------- */

/* A packet the memory side holds: the Python packet on a Python network,
 * its record (obj NULL) on an ideal one. */
typedef struct {
    PyObject *obj;
    Rec rec;
} Pkt;

/* One request in the L2-lookup input pipeline. */
typedef struct {
    Pkt pkt;
    int64_t ready, addr;
    int32_t is_read;
} Pending;

/* One DramRequest; a read carries its request packet. */
typedef struct {
    Pkt pkt;
    int64_t addr, arrival, row, issue_time, complete_time;
    int32_t bank, row_hit, is_write;
} Req;

typedef struct {
    int64_t open_row;               /* -1: no row open */
    int64_t busy_until, last_activate;
} Bank;

typedef struct {
    Req *queue, *flight;            /* FR-FCFS queue; in flight, by issue */
    int64_t nqueue, capqueue, nflight, capflight;
    Bank *banks;
    int64_t now, next_event, next_completion, bus_free_at;
    int64_t last_activate_any;
    int64_t serviced, row_hits, row_misses, data_busy, pending;
} Channel;

typedef struct {
    PyObject *node, *inject;            /* inject NULL on an ideal network */
    Ring input, replies, writebacks;    /* Pending, Pkt, int64_t */
    int64_t icnt_cycle, cycles, blocked, received, reads, writes, sent;
    int64_t max_depth;
    Cache l2;
    Channel dram;
} Mc;

typedef struct {
    PyObject_HEAD
    /* McConfig and DramTiming */
    int32_t nmcs, per_cycle, backlog_limit, num_banks, queue_capacity;
    int64_t l2_latency, tCL, tRP, tRC, tRAS, tRCD, tRRD, burst, row_bytes;
    PyObject *factory, *request_class;
    Mc *mcs;
    struct Ideal *net;          /* the ideal network it replies into, if
                                 * routed (borrowed, see Ideal) */
    char busy, stale, routed;
    PyObject *weakreflist;
} Memory;

/* A StreamingHistogram: exact counts below the linear limit, grown on
 * demand, and counts by bit length at or above it. */
typedef struct {
    int64_t *lin, nlin, log[65];
    int64_t total, min, max;
} Hist;

typedef struct {                        /* _ClassStats */
    int64_t packets, flits, latency_sum, network_latency_sum;
    Hist latency, network_latency;
} ClassStats;

/* A PerfectNetwork or BandwidthLimitedNetwork stepped with its chip's
 * cluster and memory side.  The network owns this object, the chip owns
 * the other two; each side holds the other's pointer borrowed and clears
 * it when freed, so a dropped chip frees its cluster and memory side at
 * once and leaves the network its counters. */
typedef struct Ideal {
    PyObject_HEAD
    Cluster *c;                         /* NULL once the chip is freed */
    Memory *m;
    int32_t perfect, ncores, nnodes;
    double cap, allowance;              /* BandwidthLimitedNetwork's */
    int64_t flits[3];                   /* of each record kind */
    int64_t limit, cycle;               /* histograms' linear limit */
    Ring queue;                         /* Rec: accepted, not delivered */
    int64_t packets_injected, flits_injected, packets_ejected;
    int64_t flits_ejected;
    ClassStats cls[2];                  /* REQUEST, REPLY */
    int64_t *node_in, *node_out;        /* flits by node: cores, then MCs */
    char stale;
    PyObject *weakreflist;
} Ideal;

static PyObject *s_traffic_class, *s_payload, *s_local_addr, *s_size_bytes;

/* Claim the object for one call; -1 (RuntimeError) if a call is running,
 * from whose callback this one came, or the object has been cleared. */
static int
memory_enter(Memory *m)
{
    if (m->busy) {
        PyErr_SetString(PyExc_RuntimeError,
                        "memory side re-entered from its own callback");
        return -1;
    }
    if (!m->factory) {
        PyErr_SetString(PyExc_RuntimeError, "memory side was cleared");
        return -1;
    }
    m->busy = 1;
    return 0;
}

/* -- the ideal network's records ------------------------------------------- */

/* try_inject: the network accepts every packet, stamps it and counts it
 * at its source (record_injection). */
static int
ideal_inject(Ideal *n, Rec *r, int64_t now)
{
    int64_t flits = n->flits[r->kind];
    if (ring_reserve(&n->queue, sizeof(Rec)) < 0)
        return -1;
    r->injected = now;
    n->packets_injected++;
    n->flits_injected += flits;
    n->node_in[r->kind == R_REPLY ? n->ncores + r->mc : r->core] += flits;
    *(Rec *)ring_push(&n->queue, sizeof(Rec)) = *r;
    n->stale = 1;
    return 0;
}

/* -- GddrChannel ------------------------------------------------------------ */

static void
channel_update_next_event(Channel *ch)
{
    int64_t k, next = ch->next_completion;
    for (k = 0; k < ch->nqueue; k++) {
        int64_t ready = ch->banks[ch->queue[k].bank].busy_until;
        if (ready < next)
            next = ready;
    }
    ch->next_event = next;
}

/* enqueue(DramRequest(addr, packet is NULL, 64, payload=packet), now);
 * the caller has checked can_accept. */
static int
channel_enqueue(Memory *m, Channel *ch, int64_t addr, Pkt *packet,
                int64_t now)
{
    int64_t row_id = addr / m->row_bytes, ready;
    Req *r;
    if (reserve((void **)&ch->queue, &ch->capqueue, ch->nqueue + 1,
                sizeof(Req)) < 0)
        return -1;
    r = &ch->queue[ch->nqueue++];
    memset(r, 0, sizeof *r);
    if (packet) {
        r->pkt = *packet;
        Py_XINCREF(packet->obj);
    }
    else
        r->is_write = 1;
    r->addr = addr;
    r->arrival = now;
    r->bank = (int32_t)(row_id % m->num_banks);
    r->row = row_id / m->num_banks;
    r->issue_time = r->complete_time = -1;
    ready = ch->banks[r->bank].busy_until;
    if (ready < ch->next_event)
        ch->next_event = ready;
    return 0;
}

/* _send_reply's packet for request, built at cycle: by the factory on a
 * Python network, a record on an ideal one; -1 if the factory raises. */
static int
make_reply(Memory *m, Mc *mc, Pkt *request, int64_t cycle,
           PyObject *cycle_obj, Pkt *reply)
{
    PyObject *args[3] = {mc->node, request->obj, cycle_obj};
    if (m->routed) {
        reply->obj = NULL;
        reply->rec = request->rec;
        reply->rec.kind = R_REPLY;
        reply->rec.created = cycle;
        reply->rec.injected = reply->rec.ejected = -1;
        return 0;
    }
    reply->obj = PyObject_Vectorcall(m->factory, args, 3, NULL);
    return reply->obj ? 0 : -1;
}

/* MemoryController._dram_done for a completed read: L2 fill, then the
 * reply; nothing changes if the factory raises. */
static int
dram_done(Memory *m, Mc *mc, Req *r, int64_t cycle, PyObject *cycle_obj)
{
    Pkt reply;
    int64_t writeback;
    if (r->is_write)
        return 0;
    if (ring_reserve(&mc->replies, sizeof(Pkt)) < 0
            || ring_reserve(&mc->writebacks, sizeof(int64_t)) < 0
            || cache_reserve(&mc->l2, r->addr) < 0
            || make_reply(m, mc, &r->pkt, cycle, cycle_obj, &reply) < 0)
        return -1;
    writeback = cache_fill(&mc->l2, r->addr, 0);
    if (writeback >= 0)
        *(int64_t *)ring_push(&mc->writebacks, sizeof(int64_t)) = writeback;
    *(Pkt *)ring_push(&mc->replies, sizeof(Pkt)) = reply;
    return 0;
}

/* _complete: every request in flight whose data has arrived, in issue
 * order.  Each leaves the array before the next callback runs, so the
 * collector never sees a half-compacted array. */
static int
channel_complete(Memory *m, Mc *mc, int64_t now, int64_t cycle,
                 PyObject *cycle_obj)
{
    Channel *ch = &mc->dram;
    int64_t k = 0, next = NEVER;
    int rc = 0, removed = 0;
    while (k < ch->nflight) {
        Req *r = &ch->flight[k];
        PyObject *packet = r->pkt.obj;
        if (r->complete_time > now) {
            k++;
            continue;
        }
        if (dram_done(m, mc, r, cycle, cycle_obj) < 0) {
            rc = -1;
            break;
        }
        ch->serviced++;
        memmove(r, r + 1, (ch->nflight - k - 1) * sizeof(Req));
        ch->nflight--;
        removed = 1;
        Py_XDECREF(packet);
    }
    if (removed) {
        for (k = 0; k < ch->nflight; k++)
            if (ch->flight[k].complete_time < next)
                next = ch->flight[k].complete_time;
        ch->next_completion = next;
        channel_update_next_event(ch);
    }
    return rc;
}

/* _issue: FR-FCFS in one scan, the oldest ready row hit, otherwise the
 * oldest request whose bank can start a new row cycle. */
static int
channel_issue(Memory *m, Channel *ch, int64_t now)
{
    int64_t k, chosen = -1, cas, data_start, data_end;
    Bank *bank;
    Req req;
    for (k = 0; k < ch->nqueue; k++) {
        Req *r = &ch->queue[k];
        Bank *b = &ch->banks[r->bank];
        if (b->busy_until > now)
            continue;
        if (b->open_row == r->row) {
            chosen = k;
            break;
        }
        if (chosen < 0)
            chosen = k;
    }
    if (chosen < 0)
        return 0;
    if (reserve((void **)&ch->flight, &ch->capflight, ch->nflight + 1,
                sizeof(Req)) < 0)
        return -1;
    req = ch->queue[chosen];
    memmove(&ch->queue[chosen], &ch->queue[chosen + 1],
            (ch->nqueue - chosen - 1) * sizeof(Req));
    ch->nqueue--;
    bank = &ch->banks[req.bank];
    cas = now;
    if (bank->open_row == req.row) {
        req.row_hit = 1;
        ch->row_hits++;
    }
    else {
        int64_t precharge = now, activate;
        ch->row_misses++;
        if (bank->open_row >= 0) {
            /* tRAS: the row must have been open long enough to close. */
            if (bank->last_activate + m->tRAS > precharge)
                precharge = bank->last_activate + m->tRAS;
            activate = precharge + m->tRP;
        }
        else
            activate = precharge;
        /* tRC within the bank, tRRD across banks. */
        if (bank->last_activate + m->tRC > activate)
            activate = bank->last_activate + m->tRC;
        if (ch->last_activate_any + m->tRRD > activate)
            activate = ch->last_activate_any + m->tRRD;
        bank->last_activate = activate;
        if (activate > ch->last_activate_any)
            ch->last_activate_any = activate;
        bank->open_row = req.row;
        cas = activate + m->tRCD;
    }
    data_start = cas + m->tCL;
    if (ch->bus_free_at > data_start)
        data_start = ch->bus_free_at;
    data_end = data_start + m->burst;
    ch->bus_free_at = data_end;
    bank->busy_until = data_end;
    req.issue_time = now;
    req.complete_time = data_end;
    ch->flight[ch->nflight++] = req;
    if (data_end < ch->next_completion)
        ch->next_completion = data_end;
    channel_update_next_event(ch);
    return 0;
}

/* GddrChannel.step */
static int
channel_step(Memory *m, Mc *mc, int64_t now, int64_t cycle,
             PyObject *cycle_obj)
{
    Channel *ch = &mc->dram;
    ch->now = now;
    if (ch->nqueue || ch->nflight) {
        ch->pending++;
        if (ch->bus_free_at > now)
            ch->data_busy++;
    }
    if (channel_complete(m, mc, now, cycle, cycle_obj) < 0)
        return -1;
    return channel_issue(m, ch, now);
}

/* -- MemoryController ------------------------------------------------------- */

static void
pop_input(Mc *mc)
{
    PyObject *packet = ((Pending *)ring_at(&mc->input, sizeof(Pending),
                                           0))->pkt.obj;
    ring_pop(&mc->input);
    Py_XDECREF(packet);
}

/* _drain_replies: offer the backlog in order until the network refuses
 * (an ideal network never does); a refused cycle counts as blocked. */
static int
drain_replies(Memory *m, Mc *mc, int64_t cycle, PyObject *cycle_obj)
{
    while (mc->replies.n) {
        Pkt *reply = ring_at(&mc->replies, sizeof(Pkt), 0);
        PyObject *obj = reply->obj;
        if (m->routed) {
            if (ideal_inject(m->net, &reply->rec, cycle) < 0)
                return -1;
        }
        else {
            PyObject *args[2] = {obj, cycle_obj}, *res;
            int accepted;
            if (!(res = PyObject_Vectorcall(mc->inject, args, 2, NULL)))
                return -1;
            accepted = PyObject_IsTrue(res);
            Py_DECREF(res);
            if (accepted < 0)
                return -1;
            if (!accepted) {
                mc->blocked++;
                return 0;
            }
        }
        ring_pop(&mc->replies);
        mc->sent++;
        Py_XDECREF(obj);
    }
    return 0;
}

/* _process_input.  A read that misses while the DRAM queue is full stays
 * at the head and probes the L2 again next cycle, counting another
 * miss, as the reference does. */
static int
process_input(Memory *m, Mc *mc, int64_t cycle, PyObject *cycle_obj)
{
    int32_t k;
    for (k = 0; k < m->per_cycle; k++) {
        Pending *head;
        if (!mc->input.n)
            return 0;
        head = ring_at(&mc->input, sizeof(Pending), 0);
        if (head->ready > cycle || mc->replies.n >= m->backlog_limit)
            return 0;
        if (head->is_read) {
            Line *hit = cache_find(&mc->l2, head->addr);
            if (hit) {
                Pkt reply;
                if (ring_reserve(&mc->replies, sizeof(Pkt)) < 0
                        || make_reply(m, mc, &head->pkt, cycle, cycle_obj,
                                      &reply) < 0)
                    return -1;
                cache_hit(&mc->l2, hit);
                *(Pkt *)ring_push(&mc->replies, sizeof(Pkt)) = reply;
            }
            else {
                mc->l2.misses++;
                if (mc->dram.nqueue >= m->queue_capacity)
                    return 0;       /* DRAM queue full: stall */
                if (channel_enqueue(m, &mc->dram, head->addr, &head->pkt,
                                    cycle) < 0)
                    return -1;
            }
            pop_input(mc);
            mc->reads++;
        }
        else {                      /* 64 B write: allocate, no fetch */
            int64_t addr = head->addr, writeback;
            if (ring_reserve(&mc->writebacks, sizeof(int64_t)) < 0
                    || cache_reserve(&mc->l2, addr) < 0)
                return -1;
            pop_input(mc);
            mc->writes++;
            writeback = cache_fill(&mc->l2, addr, 1);
            if (writeback >= 0)
                *(int64_t *)ring_push(&mc->writebacks,
                                      sizeof(int64_t)) = writeback;
        }
    }
    return 0;
}

static int
drain_writebacks(Memory *m, Mc *mc)
{
    while (mc->writebacks.n && mc->dram.nqueue < m->queue_capacity) {
        int64_t line = *(int64_t *)ring_at(&mc->writebacks,
                                           sizeof(int64_t), 0);
        if (channel_enqueue(m, &mc->dram, line, NULL, mc->icnt_cycle) < 0)
            return -1;
        ring_pop(&mc->writebacks);
    }
    return 0;
}

/* on_packet after its checks: the request enters the L2-lookup pipeline,
 * in the slot the caller has reserved. */
static void
mc_queue(Memory *m, Mc *mc, Pkt *packet, int64_t addr, int is_read,
         int64_t cycle)
{
    Pending *slot = ring_push(&mc->input, sizeof(Pending));
    slot->pkt = *packet;
    Py_XINCREF(packet->obj);
    slot->ready = cycle + m->l2_latency;
    slot->addr = addr;
    slot->is_read = is_read;
    mc->received++;
    if (mc->input.n > mc->max_depth)
        mc->max_depth = mc->input.n;
    m->stale = 1;
}

/* -- Memory methods ------------------------------------------------------- */

static PyObject *
memory_request(Memory *m, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t index;
    long long cycle, addr = -1, size;
    PyObject *packet, *v, *payload;
    Pkt pkt = {0};
    Mc *mc;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "request(mc, packet, cycle)");
        return NULL;
    }
    packet = args[1];
    if (((index = PyLong_AsSsize_t(args[0])) == -1 && PyErr_Occurred())
            || ((cycle = PyLong_AsLongLong(args[2])) == -1
                && PyErr_Occurred()))
        return NULL;
    if (index < 0 || index >= m->nmcs) {
        PyErr_Format(PyExc_IndexError, "MC %zd out of range", index);
        return NULL;
    }
    if (m->routed) {
        PyErr_SetString(PyExc_RuntimeError,
                        "requests reach this memory side through its "
                        "compiled network");
        return NULL;
    }
    if (memory_enter(m) < 0)
        return NULL;
    mc = &m->mcs[index];
    if (!(v = PyObject_GetAttr(packet, s_traffic_class)))
        goto error;
    if (v != m->request_class) {
        Py_DECREF(v);
        PyErr_SetString(PyExc_ValueError, "MC received a non-request packet");
        goto error;
    }
    Py_DECREF(v);
    if (!(payload = PyObject_GetAttr(packet, s_payload)))
        goto error;
    v = PyObject_GetAttr(payload, s_local_addr);
    Py_DECREF(payload);
    if (!v) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            goto error;
        PyErr_Clear();
    }
    else {
        if (PyLong_Check(v)) {
            int overflow;
            addr = PyLong_AsLongLongAndOverflow(v, &overflow);
            if (overflow || addr >= NEVER)
                addr = -1;
        }
        Py_DECREF(v);
        if (addr == -1 && PyErr_Occurred())
            goto error;
    }
    if (addr < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "request payload must expose .local_addr "
                        "(channel-local), an int in [0, 2**62)");
        goto error;
    }
    if (!(v = PyObject_GetAttr(packet, s_size_bytes)))
        goto error;
    size = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if ((size == -1 && PyErr_Occurred())
            || ring_reserve(&mc->input, sizeof(Pending)) < 0)
        goto error;
    pkt.obj = packet;
    mc_queue(m, mc, &pkt, addr, size <= 8, cycle);
    m->busy = 0;
    Py_RETURN_NONE;
error:
    m->busy = 0;
    return NULL;
}

static PyObject *
memory_step(Memory *m, PyObject *const *args, Py_ssize_t nargs)
{
    long long cycle, first, ticks, t;
    int32_t i;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "step(cycle, first_mclk, ticks)");
        return NULL;
    }
    if (((cycle = PyLong_AsLongLong(args[0])) == -1 && PyErr_Occurred())
            || ((first = PyLong_AsLongLong(args[1])) == -1
                && PyErr_Occurred())
            || ((ticks = PyLong_AsLongLong(args[2])) == -1
                && PyErr_Occurred())
            || memory_enter(m) < 0)
        return NULL;
    if (m->routed && !m->net) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the network of this memory side was freed");
        goto error;
    }
    m->stale = 1;
    for (i = 0; i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        if (mc->replies.n || mc->writebacks.n
                || (mc->input.n && ((Pending *)ring_at(
                        &mc->input, sizeof(Pending), 0))->ready <= cycle)) {
            mc->icnt_cycle = cycle;
            mc->cycles++;
            if (drain_replies(m, mc, cycle, args[0]) < 0
                    || process_input(m, mc, cycle, args[0]) < 0
                    || drain_writebacks(m, mc) < 0)
                goto error;
        }
        else {                      /* idle tick: only the clocks move */
            mc->cycles++;
            mc->icnt_cycle = cycle;
        }
    }
    for (t = 0; t < ticks; t++) {
        int64_t mclk = first + t;
        for (i = 0; i < m->nmcs; i++) {
            Channel *ch = &m->mcs[i].dram;
            if (ch->next_event <= mclk) {
                if (channel_step(m, &m->mcs[i], mclk, cycle, args[0]) < 0)
                    goto error;
            }
            else {
                /* Nothing completes or issues before next_event: only
                 * the clock and, unless empty, the busy accounting. */
                ch->now = mclk;
                if (ch->next_event != NEVER) {
                    ch->pending++;
                    if (ch->bus_free_at > mclk)
                        ch->data_busy++;
                }
            }
        }
    }
    m->busy = 0;
    Py_RETURN_NONE;
error:
    m->busy = 0;
    return NULL;
}

static PyObject *
memory_idle(Memory *m, PyObject *Py_UNUSED(ignored))
{
    int32_t i;
    for (i = 0; i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        if (mc->input.n || mc->replies.n || mc->writebacks.n
                || mc->dram.nqueue || mc->dram.nflight)
            Py_RETURN_FALSE;
    }
    Py_RETURN_TRUE;
}

static PyObject *
memory_counters(Memory *m, PyObject *Py_UNUSED(ignored))
{
    int64_t sums[8] = {0};
    int32_t i;
    for (i = 0; i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        sums[0] += mc->blocked;
        sums[1] += mc->cycles;
        sums[2] += mc->dram.data_busy;
        sums[3] += mc->dram.pending;
        sums[4] += mc->dram.row_hits;
        sums[5] += mc->dram.row_hits + mc->dram.row_misses;
        sums[6] += mc->l2.hits;
        sums[7] += mc->l2.hits + mc->l2.misses;
    }
    return Py_BuildValue("(LLLLLLLL)", (long long)sums[0],
                         (long long)sums[1], (long long)sums[2],
                         (long long)sums[3], (long long)sums[4],
                         (long long)sums[5], (long long)sums[6],
                         (long long)sums[7]);
}

/* The packet, or on an ideal network its record. */
static PyObject *
export_packet(Pkt *p)
{
    return p->obj ? new_ref(p->obj) : rec_tuple(&p->rec);
}

/* (addr, is_write, size_bytes, arrival, payload, bank, row, issue_time,
 * complete_time, row_hit): DramRequest's fields in order. */
static PyObject *
export_requests(Req *reqs, int64_t n)
{
    PyObject *out = PyTuple_New(n);
    int64_t k;
    if (!out)
        return NULL;
    for (k = 0; k < n; k++) {
        Req *r = &reqs[k];
        PyObject *payload = r->is_write ? new_ref(Py_None)
                                        : export_packet(&r->pkt);
        PyObject *row = payload ? Py_BuildValue(
            "(LOiLNiLLLO)", (long long)r->addr,
            r->is_write ? Py_True : Py_False, 64, (long long)r->arrival,
            payload, r->bank, (long long)r->row,
            (long long)r->issue_time, (long long)r->complete_time,
            r->row_hit ? Py_True : Py_False) : NULL;
        if (!row) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, k, row);
    }
    return out;
}

static PyObject *
export_channel(Memory *m, Channel *ch)
{
    PyObject *banks = PyTuple_New(m->num_banks), *queue = NULL;
    PyObject *flight = NULL;
    int32_t b;
    if (!banks)
        return NULL;
    for (b = 0; b < m->num_banks; b++) {
        Bank *bank = &ch->banks[b];
        PyObject *row = bank->open_row < 0
            ? Py_BuildValue("(OLL)", Py_None, (long long)bank->busy_until,
                            (long long)bank->last_activate)
            : Py_BuildValue("(LLL)", (long long)bank->open_row,
                            (long long)bank->busy_until,
                            (long long)bank->last_activate);
        if (!row)
            goto error;
        PyTuple_SET_ITEM(banks, b, row);
    }
    if (!(queue = export_requests(ch->queue, ch->nqueue))
            || !(flight = export_requests(ch->flight, ch->nflight)))
        goto error;
    return Py_BuildValue(
        "(LLLLLLLLLLNNN)", (long long)ch->serviced, (long long)ch->row_hits,
        (long long)ch->row_misses, (long long)ch->data_busy,
        (long long)ch->pending, (long long)ch->now,
        (long long)ch->next_event, (long long)ch->next_completion,
        (long long)ch->bus_free_at, (long long)ch->last_activate_any,
        banks, queue, flight);
error:
    Py_DECREF(banks);
    Py_XDECREF(queue);
    return NULL;
}

static PyObject *
export_mc(Memory *m, Mc *mc)
{
    PyObject *input = PyTuple_New(mc->input.n), *replies = NULL;
    PyObject *writebacks = NULL, *channel = NULL;
    int64_t k;
    if (!input)
        return NULL;
    for (k = 0; k < mc->input.n; k++) {
        Pending *p = ring_at(&mc->input, sizeof(Pending), k);
        PyObject *packet = export_packet(&p->pkt);
        PyObject *row = packet ? Py_BuildValue("(LN)", (long long)p->ready,
                                               packet) : NULL;
        if (!row)
            goto error;
        PyTuple_SET_ITEM(input, k, row);
    }
    if (!(replies = PyTuple_New(mc->replies.n)))
        goto error;
    for (k = 0; k < mc->replies.n; k++) {
        PyObject *reply = export_packet(ring_at(&mc->replies, sizeof(Pkt),
                                                k));
        if (!reply)
            goto error;
        PyTuple_SET_ITEM(replies, k, reply);
    }
    if (!(writebacks = PyTuple_New(mc->writebacks.n)))
        goto error;
    for (k = 0; k < mc->writebacks.n; k++) {
        PyObject *v = PyLong_FromLongLong(*(int64_t *)ring_at(
            &mc->writebacks, sizeof(int64_t), k));
        if (!v)
            goto error;
        PyTuple_SET_ITEM(writebacks, k, v);
    }
    if (!(channel = export_channel(m, &mc->dram)))
        goto error;
    return Py_BuildValue(
        "(LLLLLLLLLLNNNN)", (long long)mc->cycles, (long long)mc->blocked,
        (long long)mc->received, (long long)mc->reads,
        (long long)mc->writes, (long long)mc->sent,
        (long long)mc->max_depth, (long long)mc->icnt_cycle,
        (long long)mc->l2.hits, (long long)mc->l2.misses,
        input, replies, writebacks, channel);
error:
    Py_DECREF(input);
    Py_XDECREF(replies);
    Py_XDECREF(writebacks);
    return NULL;
}

static PyObject *
memory_export(Memory *m, PyObject *Py_UNUSED(ignored))
{
    PyObject *out;
    int32_t i;
    if (memory_enter(m) < 0)
        return NULL;
    if ((out = PyList_New(m->nmcs))) {
        for (i = 0; i < m->nmcs; i++) {
            PyObject *row = export_mc(m, &m->mcs[i]);
            if (!row) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, i, row);
        }
    }
    if (out)
        m->stale = 0;
    m->busy = 0;
    return out;
}

static int
memory_traverse(Memory *m, visitproc visit, void *arg)
{
    int32_t i;
    int64_t k;
    Py_VISIT(m->factory);
    Py_VISIT(m->request_class);
    for (i = 0; m->mcs && i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        Py_VISIT(mc->node);
        Py_VISIT(mc->inject);
        for (k = 0; k < mc->input.n; k++)
            Py_VISIT(((Pending *)ring_at(&mc->input, sizeof(Pending),
                                         k))->pkt.obj);
        for (k = 0; k < mc->replies.n; k++)
            Py_VISIT(((Pkt *)ring_at(&mc->replies, sizeof(Pkt), k))->obj);
        for (k = 0; k < mc->dram.nqueue; k++)
            Py_VISIT(mc->dram.queue[k].pkt.obj);
        for (k = 0; k < mc->dram.nflight; k++)
            Py_VISIT(mc->dram.flight[k].pkt.obj);
    }
    return 0;
}

/* Drop every Python reference: the queues empty and the object refuses
 * further calls (memory_enter checks the factory). */
static int
memory_clear(Memory *m)
{
    int32_t i;
    Py_CLEAR(m->factory);
    Py_CLEAR(m->request_class);
    for (i = 0; m->mcs && i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        Py_CLEAR(mc->node);
        Py_CLEAR(mc->inject);
        while (mc->input.n)
            pop_input(mc);
        while (mc->replies.n) {
            PyObject *reply = ((Pkt *)ring_at(&mc->replies, sizeof(Pkt),
                                              0))->obj;
            ring_pop(&mc->replies);
            Py_XDECREF(reply);
        }
        while (mc->dram.nqueue) {
            PyObject *packet = mc->dram.queue[--mc->dram.nqueue].pkt.obj;
            Py_XDECREF(packet);
        }
        while (mc->dram.nflight) {
            PyObject *packet = mc->dram.flight[--mc->dram.nflight].pkt.obj;
            Py_XDECREF(packet);
        }
    }
    return 0;
}

static void
memory_dealloc(Memory *m)
{
    int32_t i;
    PyObject_GC_UnTrack(m);
    if (m->weakreflist)
        PyObject_ClearWeakRefs((PyObject *)m);
    if (m->net)
        m->net->m = NULL;
    memory_clear(m);
    for (i = 0; m->mcs && i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        PyMem_Free(mc->input.buf);
        PyMem_Free(mc->replies.buf);
        PyMem_Free(mc->writebacks.buf);
        cache_free(&mc->l2);
        PyMem_Free(mc->dram.queue);
        PyMem_Free(mc->dram.flight);
        PyMem_Free(mc->dram.banks);
    }
    PyMem_Free(m->mcs);
    Py_TYPE(m)->tp_free((PyObject *)m);
}

static PyMethodDef memory_methods[] = {
    {"request", (PyCFunction)(void (*)(void))memory_request, METH_FASTCALL,
     NULL},
    {"step", (PyCFunction)(void (*)(void))memory_step, METH_FASTCALL, NULL},
    {"idle", (PyCFunction)memory_idle, METH_NOARGS, NULL},
    {"counters", (PyCFunction)memory_counters, METH_NOARGS, NULL},
    {"export", (PyCFunction)memory_export, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef memory_members[] = {
    {"stale", T_BOOL, offsetof(Memory, stale), READONLY, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject MemoryType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_core_kernel.Memory",
    .tp_basicsize = sizeof(Memory),
    .tp_dealloc = (destructor)memory_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)memory_traverse,
    .tp_clear = (inquiry)memory_clear,
    .tp_weaklistoffset = offsetof(Memory, weakreflist),
    .tp_methods = memory_methods,
    .tp_members = memory_members,
    .tp_free = PyObject_GC_Del,
};

/* memory((l2_size, l2_line, l2_assoc, l2_latency, requests_per_cycle,
 *         reply_backlog_limit),
 *        (tCL, tRP, tRC, tRAS, tRCD, tRRD, bytes_per_cycle, num_banks,
 *         row_bytes, queue_capacity),
 *        nodes, injects, factory, request_class): McConfig's and
 * DramTiming's fields, one node id and inject callable per MC. */
static PyObject *
kernel_memory(PyObject *Py_UNUSED(module), PyObject *args)
{
    Memory *m;
    PyObject *nodes, *injects, *factory, *request_class;
    PyObject *cfast = NULL, *ifast = NULL;
    long long size, line, latency, tCL, tRP, tRC, tRAS, tRCD, tRRD;
    long long bytes, row_bytes;
    int assoc, per_cycle, backlog, banks, capacity;
    Py_ssize_t n;
    int32_t i, b;
    if (!PyArg_ParseTuple(
            args, "(LLiLii)(LLLLLLLiLi)OOOO", &size, &line, &assoc,
            &latency, &per_cycle, &backlog, &tCL, &tRP, &tRC, &tRAS, &tRCD,
            &tRRD, &bytes, &banks, &row_bytes, &capacity, &nodes, &injects,
            &factory, &request_class))
        return NULL;
    if (line < 1 || assoc < 1 || size < 1 || size % (line * assoc)
            || size / (line * assoc) > INT32_MAX || bytes < 1 || banks < 1
            || row_bytes < 1) {
        PyErr_SetString(PyExc_ValueError, "bad memory configuration");
        return NULL;
    }
    if (!(cfast = PySequence_Fast(nodes, "nodes must be a sequence"))
            || !(ifast = PySequence_Fast(injects,
                                         "injects must be a sequence")))
        goto fail;
    n = PySequence_Fast_GET_SIZE(cfast);
    if (n < 1 || n > INT32_MAX || PySequence_Fast_GET_SIZE(ifast) != n) {
        PyErr_SetString(PyExc_ValueError, "need one node and inject per MC");
        goto fail;
    }
    if (!(m = PyObject_GC_New(Memory, &MemoryType)))
        goto fail;
    memset((char *)m + sizeof(PyObject), 0, sizeof(Memory) - sizeof(PyObject));
    m->nmcs = (int32_t)n;
    m->per_cycle = per_cycle;
    m->backlog_limit = backlog;
    m->num_banks = banks;
    m->queue_capacity = capacity;
    m->l2_latency = latency;
    m->tCL = tCL;
    m->tRP = tRP;
    m->tRC = tRC;
    m->tRAS = tRAS;
    m->tRCD = tRCD;
    m->tRRD = tRRD;
    m->burst = (64 + bytes - 1) / bytes;    /* burst_cycles(64) */
    m->row_bytes = row_bytes;
    Py_INCREF(factory);
    m->factory = factory;
    Py_INCREF(request_class);
    m->request_class = request_class;
    if (!(m->mcs = zeroed(n, sizeof(Mc))))
        goto error;
    for (i = 0; i < m->nmcs; i++) {
        Mc *mc = &m->mcs[i];
        Channel *ch = &mc->dram;
        mc->node = PySequence_Fast_GET_ITEM(cfast, i);
        Py_INCREF(mc->node);
        mc->inject = PySequence_Fast_GET_ITEM(ifast, i);
        Py_INCREF(mc->inject);
        if (cache_init(&mc->l2, (int32_t)(size / (line * assoc)), assoc,
                       line) < 0
                || !(ch->banks = zeroed(banks, sizeof(Bank))))
            goto error;
        for (b = 0; b < banks; b++) {
            ch->banks[b].open_row = -1;
            ch->banks[b].busy_until = -1;
            ch->banks[b].last_activate = -((int64_t)1 << 30);
        }
        ch->last_activate_any = -((int64_t)1 << 30);
        ch->next_completion = ch->next_event = NEVER;
    }
    Py_DECREF(cfast);
    Py_DECREF(ifast);
    PyObject_GC_Track(m);
    return (PyObject *)m;
error:
    Py_DECREF(m);
fail:
    Py_XDECREF(cfast);
    Py_XDECREF(ifast);
    return NULL;
}

/* -- the ideal networks (PerfectNetwork, BandwidthLimitedNetwork) -------- */

/* Room to count the value v; -1 (MemoryError) if it cannot be made. */
static int
hist_reserve(Hist *h, int64_t v, int64_t limit)
{
    if (v >= limit || v < h->nlin)
        return 0;
    return reserve((void **)&h->lin, &h->nlin, v + 1, sizeof(int64_t));
}

/* StreamingHistogram.add(v), after hist_reserve. */
static void
hist_add(Hist *h, int64_t v, int64_t limit)
{
    if (v < limit)
        h->lin[v]++;
    else {
        int bits = 0;
        int64_t x;
        for (x = v; x; x >>= 1)
            bits++;
        h->log[bits]++;
    }
    if (!h->total || v < h->min)
        h->min = v;
    if (!h->total || v > h->max)
        h->max = v;
    h->total++;
}

static int
append_bucket(PyObject *buckets, int64_t id, int64_t count)
{
    PyObject *row = Py_BuildValue("(LL)", (long long)id, (long long)count);
    int rc = row ? PyList_Append(buckets, row) : -1;
    Py_XDECREF(row);
    return rc;
}

/* (buckets, total, min, max): the buckets as (id, count) pairs in value
 * order, id the value below the limit and minus the bit length above it;
 * min and max None while empty. */
static PyObject *
hist_export(Hist *h)
{
    PyObject *buckets = PyList_New(0);
    int64_t v;
    if (!buckets)
        return NULL;
    for (v = 0; v < h->nlin; v++)
        if (h->lin[v] && append_bucket(buckets, v, h->lin[v]) < 0)
            goto error;
    for (v = 0; v < 65; v++)
        if (h->log[v] && append_bucket(buckets, -v, h->log[v]) < 0)
            goto error;
    if (!h->total)
        return Py_BuildValue("(NLOO)", buckets, 0LL, Py_None, Py_None);
    return Py_BuildValue("(NLLL)", buckets, (long long)h->total,
                         (long long)h->min, (long long)h->max);
error:
    Py_DECREF(buckets);
    return NULL;
}

/* _deliver: the handler (the MC's input pipeline for a request, the
 * cluster's reply path for a reply), then the ejection records; nothing
 * changes on an error. */
static int
deliver(Ideal *n, Rec *r, int64_t now)
{
    int reply = r->kind == R_REPLY;
    ClassStats *s = &n->cls[reply];
    int64_t flits = n->flits[r->kind];
    int64_t latency = now - r->created, network = now - r->injected;
    if (latency < 0 || network < 0) {   /* StreamingHistogram.add's check */
        PyErr_SetString(PyExc_ValueError,
                        "histogram samples must be >= 0");
        return -1;
    }
    if (hist_reserve(&s->latency, latency, n->limit) < 0
            || hist_reserve(&s->network_latency, network, n->limit) < 0)
        return -1;
    if (reply) {
        if (core_reply(n->c, r->core, r->line, now) == -2)
            return -1;
    }
    else {
        Mc *mc = &n->m->mcs[r->mc];
        Pkt packet;
        if (ring_reserve(&mc->input, sizeof(Pending)) < 0)
            return -1;
        packet.obj = NULL;
        packet.rec = *r;
        packet.rec.ejected = now;
        mc_queue(n->m, mc, &packet, r->local, r->kind == R_READ, now);
    }
    n->packets_ejected++;
    n->flits_ejected += flits;
    s->packets++;
    s->flits += flits;
    s->latency_sum += latency;
    s->network_latency_sum += network;
    hist_add(&s->latency, latency, n->limit);
    hist_add(&s->network_latency, network, n->limit);
    n->node_out[reply ? r->core : n->ncores + r->mc] += flits;
    return 0;
}

/* The chip freed its cluster. */
static void
ideal_drop_cluster(Ideal *n)
{
    n->c = NULL;
}

static PyObject *
ideal_step(Ideal *n, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    Cluster *c = n->c;
    int32_t i;
    if (now == -1 && PyErr_Occurred())
        return NULL;
    if (!c || !n->m) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the chip of this network was freed");
        return NULL;
    }
    if (memory_enter(n->m) < 0)
        return NULL;
    n->cycle = now;
    n->stale = c->stale = 1;
    /* The chip's outbound loop: each core's FIFO in core order, every
     * packet re-stamped at the network interface. */
    for (i = 0; c->queued && i < c->ncores; i++) {
        Ring *fifo = &c->cores[i].outbound;
        while (fifo->n) {
            Rec *r = ring_at(fifo, sizeof(Rec), 0);
            r->created = now;
            if (ideal_inject(n, r, now) < 0)
                goto error;
            ring_pop(fifo);
            c->queued--;
        }
    }
    if (!n->perfect) {
        /* min(allowance + cap, 4.0 * cap), in doubles as in Python */
        double sum = n->allowance + n->cap, bound = 4.0 * n->cap;
        n->allowance = bound < sum ? bound : sum;
    }
    while (n->queue.n) {
        Rec *r = ring_at(&n->queue, sizeof(Rec), 0);
        int64_t flits = n->flits[r->kind];
        if (!n->perfect && (double)flits > n->allowance)
            break;
        if (deliver(n, r, now) < 0)
            goto error;
        if (!n->perfect)
            n->allowance -= (double)flits;
        ring_pop(&n->queue);
    }
    n->m->busy = 0;
    Py_RETURN_NONE;
error:
    n->m->busy = 0;
    return NULL;
}

static PyObject *
ideal_idle(Ideal *n, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(n->queue.n == 0);
}

/* The flits of every node: the cores', then the MCs'. */
static PyObject *
export_nodes(int64_t *flits, int32_t count)
{
    PyObject *out = PyTuple_New(count);
    int32_t k;
    for (k = 0; out && k < count; k++) {
        PyObject *value = PyLong_FromLongLong(flits[k]);
        if (!value)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, value);
    }
    return out;
}

/* (cycle, allowance, packets_injected, flits_injected, packets_ejected,
 * flits_ejected, per class (packets, flits, latency_sum,
 * network_latency_sum, latency_hist, network_latency_hist), injected
 * flits by node, ejected flits by node), the nodes being the cores, then
 * the MCs */
static PyObject *
ideal_export(Ideal *n, PyObject *Py_UNUSED(ignored))
{
    PyObject *classes = PyTuple_New(2), *out;
    int k;
    if (!classes)
        return NULL;
    for (k = 0; k < 2; k++) {
        ClassStats *s = &n->cls[k];
        PyObject *latency = hist_export(&s->latency), *network = NULL;
        PyObject *row = NULL;
        if (latency && (network = hist_export(&s->network_latency)))
            row = Py_BuildValue("(LLLLNN)", (long long)s->packets,
                                (long long)s->flits,
                                (long long)s->latency_sum,
                                (long long)s->network_latency_sum,
                                latency, network);
        else
            Py_XDECREF(latency);
        if (!row) {
            Py_DECREF(classes);
            return NULL;
        }
        PyTuple_SET_ITEM(classes, k, row);
    }
    out = Py_BuildValue(
        "(LdLLLLNNN)", (long long)n->cycle, n->allowance,
        (long long)n->packets_injected, (long long)n->flits_injected,
        (long long)n->packets_ejected, (long long)n->flits_ejected, classes,
        export_nodes(n->node_in, n->nnodes),
        export_nodes(n->node_out, n->nnodes));
    if (out)
        n->stale = 0;
    return out;
}

static PyObject *
ideal_queued(Ideal *n, PyObject *Py_UNUSED(ignored))
{
    return ring_records(&n->queue);
}

static void
ideal_dealloc(Ideal *n)
{
    int k;
    if (n->weakreflist)
        PyObject_ClearWeakRefs((PyObject *)n);
    if (n->c)
        n->c->net = NULL;
    if (n->m)
        n->m->net = NULL;
    PyMem_Free(n->queue.buf);
    for (k = 0; k < 2; k++) {
        PyMem_Free(n->cls[k].latency.lin);
        PyMem_Free(n->cls[k].network_latency.lin);
    }
    PyMem_Free(n->node_in);
    PyMem_Free(n->node_out);
    Py_TYPE(n)->tp_free((PyObject *)n);
}

static PyMethodDef ideal_methods[] = {
    {"step", (PyCFunction)ideal_step, METH_O, NULL},
    {"idle", (PyCFunction)ideal_idle, METH_NOARGS, NULL},
    {"export", (PyCFunction)ideal_export, METH_NOARGS, NULL},
    {"queued", (PyCFunction)ideal_queued, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef ideal_members[] = {
    {"cycle", T_LONGLONG, offsetof(Ideal, cycle), READONLY, NULL},
    {"stale", T_BOOL, offsetof(Ideal, stale), READONLY, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject IdealType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_core_kernel.Ideal",
    .tp_basicsize = sizeof(Ideal),
    .tp_dealloc = (destructor)ideal_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_weaklistoffset = offsetof(Ideal, weakreflist),
    .tp_methods = ideal_methods,
    .tp_members = ideal_members,
};

/* ideal(cluster, memory, (interleave, cap, allowance, read_flits,
 *        write_flits, reply_flits, linear_limit)): the network of the chip
 * whose fresh cluster and memory side these are, which it takes over: the
 * cluster routes its requests with AddressMap's interleave onto its
 * outbound FIFOs, the MCs offer their replies to it.  cap is
 * BandwidthLimitedNetwork's flits per cycle, 0 for a PerfectNetwork,
 * allowance its banked budget; the flits are each packet size's
 * num_flits at the network's channel width. */
static PyObject *
kernel_ideal(PyObject *Py_UNUSED(module), PyObject *args)
{
    Cluster *c;
    Memory *m;
    Ideal *n;
    long long interleave, read, write, reply, limit;
    double cap, allowance;
    int32_t i;
    if (!PyArg_ParseTuple(args, "O!O!(LddLLLL)", &ClusterType, &c,
                          &MemoryType, &m, &interleave, &cap, &allowance,
                          &read, &write, &reply, &limit))
        return NULL;
    if (interleave < 1 || read < 1 || write < 1 || reply < 1 || limit < 1
            || cap < 0) {
        PyErr_SetString(PyExc_ValueError, "bad ideal-network configuration");
        return NULL;
    }
    if (c->routed || c->stale || m->routed || m->stale || m->busy) {
        PyErr_SetString(PyExc_ValueError,
                        "the cluster and memory side must be fresh");
        return NULL;
    }
    if (!(n = PyObject_New(Ideal, &IdealType)))
        return NULL;
    memset((char *)n + sizeof(PyObject), 0, sizeof(Ideal) - sizeof(PyObject));
    n->nnodes = c->ncores + m->nmcs;
    if (!(n->node_in = zeroed(n->nnodes, sizeof(int64_t)))
            || !(n->node_out = zeroed(n->nnodes, sizeof(int64_t)))) {
        Py_DECREF(n);
        return NULL;
    }
    n->perfect = cap == 0;
    n->cap = cap;
    n->allowance = allowance;
    n->flits[R_READ] = read;
    n->flits[R_WRITE] = write;
    n->flits[R_REPLY] = reply;
    n->limit = limit;
    n->ncores = c->ncores;
    c->routed = 1;
    c->nmcs = m->nmcs;
    c->interleave = interleave;
    m->routed = 1;
    /* The MCs offer their replies to this network, not through inject. */
    for (i = 0; i < m->nmcs; i++)
        Py_CLEAR(m->mcs[i].inject);
    n->c = c;
    c->net = n;
    n->m = m;
    m->net = n;
    return (PyObject *)n;
}

/* -- module functions ----------------------------------------------------- */

static int
read_seeds(PyObject *seq, Py_ssize_t n, uint64_t **out)
{
    Py_ssize_t k;
    PyObject *fast = PySequence_Fast(seq, "seeds must be a sequence");
    if (!fast)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_SetString(PyExc_ValueError, "wrong number of seeds");
        Py_DECREF(fast);
        return -1;
    }
    if (!(*out = zeroed(n, sizeof(uint64_t)))) {
        Py_DECREF(fast);
        return -1;
    }
    for (k = 0; k < n; k++) {
        uint64_t v = PyLong_AsUnsignedLongLong(
            PySequence_Fast_GET_ITEM(fast, k));
        if (v == (uint64_t)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        (*out)[k] = v;
    }
    Py_DECREF(fast);
    return 0;
}

static PyObject *
kernel_new(PyObject *Py_UNUSED(module), PyObject *args)
{
    Cluster *c;
    PyObject *warp_seeds, *region_seeds;
    long long alu, shared, hit, store, interval, line_bytes;
    long long region_lines, stride, ipw;
    int ncores, nwarps, nsets, assoc, entries, merged;
    int simd_full, act_lo, act_hi, div_hi, window;
    double mem, shr, sto, reuse, streaming;
    int64_t nw;
    int32_t i;
    if (!PyArg_ParseTuple(
            args, "(iiLLLLLiiLii)(iiiiiLLL)(ddddd)OO", &ncores, &nwarps,
            &alu, &shared, &hit, &store, &interval, &nsets, &assoc,
            &line_bytes, &entries, &merged, &simd_full, &act_lo, &act_hi,
            &div_hi, &window, &region_lines, &stride, &ipw, &mem, &shr,
            &sto, &reuse, &streaming, &warp_seeds, &region_seeds))
        return NULL;
    if (ncores < 1 || nwarps < 1 || nsets < 1 || assoc < 1 || entries < 1
            || merged < 1 || line_bytes < 1 || window < 0
            || region_lines < 1 || region_lines > UINT32_MAX
            || act_lo < 1 || act_hi < act_lo || div_hi < 0) {
        PyErr_SetString(PyExc_ValueError, "bad cluster configuration");
        return NULL;
    }
    if (!(c = PyObject_New(Cluster, &ClusterType)))
        return NULL;
    memset((char *)c + sizeof(PyObject), 0, sizeof(Cluster) - sizeof(PyObject));
    c->ncores = ncores;
    c->nwarps = nwarps;
    c->alu_lat = alu;
    c->shared_lat = shared;
    c->hit_lat = hit;
    c->store_lat = store;
    c->issue_interval = interval;
    c->mshr_entries = entries;
    c->max_merged = merged;
    c->simd_full = simd_full;
    c->act_lo = act_lo;
    c->act_hi = act_hi;
    c->div_hi = div_hi;
    c->max_lines = div_hi ? (div_hi < MAX_LINES ? div_hi : MAX_LINES) : 1;
    c->window = window;
    c->region_lines = region_lines;
    c->stride = stride;
    c->ipw = ipw;
    c->mem_fraction = mem;
    c->shared_fraction = shr;
    c->store_fraction = sto;
    c->reuse = reuse;
    c->streaming = streaming;
    nw = (int64_t)ncores * nwarps;
    c->unfinished = nw;
    if (read_seeds(warp_seeds, nw, &c->warp_seeds) < 0
            || read_seeds(region_seeds, ncores, &c->region_seeds) < 0
            || !(c->cores = zeroed(ncores, sizeof(Core)))
            || !(c->warps = zeroed(nw, sizeof(Warp)))
            || !(c->mt = zeroed(nw, sizeof(Mt)))
            || !(c->recent = zeroed(nw * window, sizeof(int64_t)))
            || !(c->lines = zeroed(nw * c->max_lines, sizeof(int64_t))))
        goto error;
    for (i = 0; i < ncores; i++) {
        Core *core = &c->cores[i];
        if (!(core->entries = zeroed(entries, sizeof(Entry)))
                || cache_init(&core->l1, nsets, assoc, line_bytes) < 0)
            goto error;
    }
    return (PyObject *)c;
error:
    Py_DECREF(c);
    return NULL;
}

/* mt_sample(seed, ops): draws of random.Random(seed), one per op:
 * (0,) random(), (1, n) randrange(n), (2, a, b) randint(a, b). */
static PyObject *
kernel_mt_sample(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *seed_obj, *ops, *fast, *out;
    Py_ssize_t k, n;
    uint64_t seed;
    Mt m;
    if (!PyArg_ParseTuple(args, "OO", &seed_obj, &ops))
        return NULL;
    seed = PyLong_AsUnsignedLongLong(seed_obj);
    if (seed == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    if (!(fast = PySequence_Fast(ops, "ops must be a sequence")))
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    if (!(out = PyList_New(n))) {
        Py_DECREF(fast);
        return NULL;
    }
    mt_seed(&m, seed);
    for (k = 0; k < n; k++) {
        int op;
        long long a = 0, b = 0;
        PyObject *v = NULL;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(fast, k), "i|LL",
                              &op, &a, &b))
            goto error;
        if (op == 0)
            v = PyFloat_FromDouble(mt_random(&m));
        else if (op == 1 && a >= 1 && a <= UINT32_MAX)
            v = PyLong_FromUnsignedLong(mt_below(&m, (uint32_t)a));
        else if (op == 2 && b >= a && b - a < UINT32_MAX
                 && a >= INT32_MIN && b <= INT32_MAX)
            v = PyLong_FromLong(mt_randint(&m, (int32_t)a, (int32_t)b));
        else
            PyErr_SetString(PyExc_ValueError, "bad op");
        if (!v)
            goto error;
        PyList_SET_ITEM(out, k, v);
    }
    Py_DECREF(fast);
    return out;
error:
    Py_DECREF(fast);
    Py_DECREF(out);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"new", kernel_new, METH_VARARGS, NULL},
    {"memory", kernel_memory, METH_VARARGS, NULL},
    {"ideal", kernel_ideal, METH_VARARGS, NULL},
    {"mt_sample", kernel_mt_sample, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_core_kernel",
    "Compiled chip side: SIMT cores, memory nodes and ideal networks.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__core_kernel(void)
{
    PyObject *m;
    if (PyType_Ready(&ClusterType) < 0 || PyType_Ready(&MemoryType) < 0
            || PyType_Ready(&IdealType) < 0)
        return NULL;
    if (!(s_traffic_class = PyUnicode_InternFromString("traffic_class"))
            || !(s_payload = PyUnicode_InternFromString("payload"))
            || !(s_local_addr = PyUnicode_InternFromString("local_addr"))
            || !(s_size_bytes = PyUnicode_InternFromString("size_bytes")))
        return NULL;
    if (!(m = PyModule_Create(&kernel_module)))
        return NULL;
    if (PyModule_AddIntConstant(m, "LAYOUT", LAYOUT) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

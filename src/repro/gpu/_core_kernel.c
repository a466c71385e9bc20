/* Compiled core cluster of one Accelerator (see repro/gpu/cluster.py).
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
 * Module functions:
 *   new(config, program, fractions, warp_seeds, region_seeds) -> Cluster
 *   mt_sample(seed, ops) -> list   draws of one generator (tests)
 * Cluster methods:
 *   step(first_cycle, ticks) -> [(core, line, cycle), ...] or None
 *       one call per interconnect cycle: core cycles first_cycle ..
 *       first_cycle + ticks - 1, each stepping every core whose wake is
 *       due, in core order; returns the read requests in issue order;
 *   reply(core, line) -> write-back line, or -1
 *       a read reply: MSHR complete, L1 fill, waiter release; raises
 *       KeyError, writing nothing, if the line has no MSHR entry;
 *   finished() -> bool   every warp finished and every MSHR file empty;
 *   export(core) -> tuple   the core's counters, wake, issue-busy time,
 *       scheduler pointer, warps and MSHR entries;
 *   next_instruction(core, warp) -> None or (kind, lines, active)
 *       draw the warp's next instruction without issuing it (tests).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LAYOUT 1
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

typedef struct {
    int64_t tag;                    /* line address, -1 if the way is empty */
    int64_t lru;
    int32_t dirty;
} Line;

/* One MSHR entry; waiters are warp indices, -1 for a store. */
typedef struct {
    int64_t line;
    int32_t *waiters;
    int32_t nwait, cap, issued;
} Entry;

typedef struct {
    int64_t busy_until, wake;
    int64_t retired, issued, stalls, loads, stores;
    int64_t l1_clock, l1_version, l1_hits, l1_misses;
    int64_t mshr_version, allocations, merges;
    int64_t base_line, phase;       /* the core's region, once placed */
    int32_t pointer, placed, nentries;
    Entry *entries;                 /* nentries live, in insertion order */
    Line *l1;                       /* nsets * assoc ways */
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
    int32_t ncores, nwarps, nsets, assoc, mshr_entries, max_merged;
    int64_t alu_lat, shared_lat, hit_lat, store_lat, issue_interval;
    int64_t line_bytes;
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

/* -- L1 (SetAssociativeCache) and MSHRs (MshrFile) ------------------------ */

static Line *
l1_set(Cluster *c, Core *core, int64_t line_addr)
{
    return core->l1 + ((line_addr / c->line_bytes) % c->nsets) * c->assoc;
}

static Line *
l1_find(Cluster *c, Core *core, int64_t addr)
{
    int64_t line_addr = addr - addr % c->line_bytes;
    Line *set = l1_set(c, core, line_addr);
    int32_t k;
    for (k = 0; k < c->assoc; k++)
        if (set[k].tag == line_addr)
            return &set[k];
    return NULL;
}

/* fill(addr, dirty): the evicted dirty line, or -1. */
static int64_t
l1_fill(Cluster *c, Core *core, int64_t addr, int dirty)
{
    int64_t line_addr = addr - addr % c->line_bytes;
    Line *set = l1_set(c, core, line_addr);
    Line *slot = NULL, *victim = NULL;
    int64_t writeback = -1;
    int32_t k;
    core->l1_clock++;
    core->l1_version++;
    for (k = 0; k < c->assoc; k++) {
        Line *way = &set[k];
        if (way->tag == line_addr) {
            way->lru = core->l1_clock;
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
    slot->lru = core->l1_clock;
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

static int
emit_read(Cluster *c, int32_t i, int64_t line, int64_t cycle)
{
    PyObject *request;
    int rc;
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
    int64_t l1v = core->l1_version, mv = core->mshr_version;
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
        if (l1_find(c, core, line)) {
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
        Line *hit = l1_find(c, core, hits[j]);
        core->l1_hits++;
        hit->lru = ++core->l1_clock;
        if (is_store)
            hit->dirty = 1;
    }
    for (j = 0; j < nm; j++) {
        Entry *e;
        core->l1_misses++;
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

static PyObject *
cluster_reply(Cluster *c, PyObject *args)
{
    int i, dirty = 0;
    long long line;
    int32_t j, k;
    Core *core;
    Entry *e = NULL, done;
    int64_t writeback;
    if (!PyArg_ParseTuple(args, "iL", &i, &line) || check_core(c, i) < 0)
        return NULL;
    core = &c->cores[i];
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
        return NULL;
    }
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
    writeback = l1_fill(c, core, line, dirty);
    for (j = 0; j < done.nwait; j++) {
        Warp *wp;
        if (done.waiters[j] < 0)
            continue;
        wp = &c->warps[(int64_t)i * c->nwarps + done.waiters[j]];
        if (--wp->pending < 0) {
            PyErr_SetString(PyExc_RuntimeError, "pending-load underflow");
            return NULL;
        }
    }
    core->wake = 0;
    return PyLong_FromLongLong(writeback);
}

static PyObject *
cluster_finished(Cluster *c, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(c->unfinished == 0 && c->outstanding == 0);
}

static PyObject *
cluster_export(Cluster *c, PyObject *args)
{
    int i;
    int32_t w, k, j;
    Core *core;
    PyObject *warps = NULL, *entries = NULL;
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
    return Py_BuildValue(
        "(LLLLLLLiLLLLNN)", (long long)core->retired,
        (long long)core->issued, (long long)core->stalls,
        (long long)core->loads, (long long)core->stores,
        (long long)core->wake, (long long)core->busy_until, core->pointer,
        (long long)core->l1_hits, (long long)core->l1_misses,
        (long long)core->allocations, (long long)core->merges,
        warps, entries);
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

static void
cluster_dealloc(Cluster *c)
{
    int32_t i, k;
    if (c->cores) {
        for (i = 0; i < c->ncores; i++) {
            Core *core = &c->cores[i];
            if (core->entries)
                for (k = 0; k < c->mshr_entries; k++)
                    PyMem_Free(core->entries[k].waiters);
            PyMem_Free(core->entries);
            PyMem_Free(core->l1);
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
    {"export", (PyCFunction)cluster_export, METH_VARARGS, NULL},
    {"next_instruction", (PyCFunction)cluster_next_instruction,
     METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject ClusterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_core_kernel.Cluster",
    .tp_basicsize = sizeof(Cluster),
    .tp_dealloc = (destructor)cluster_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_methods = cluster_methods,
};

/* -- module functions ----------------------------------------------------- */

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
    int32_t i, k;
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
    c->nsets = nsets;
    c->assoc = assoc;
    c->line_bytes = line_bytes;
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
                || !(core->l1 = zeroed((int64_t)nsets * assoc, sizeof(Line))))
            goto error;
        for (k = 0; k < nsets * assoc; k++)
            core->l1[k].tag = -1;
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
    {"mt_sample", kernel_mt_sample, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_core_kernel",
    "Compiled SIMT core cluster (see repro/gpu/cluster.py).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__core_kernel(void)
{
    PyObject *m;
    if (PyType_Ready(&ClusterType) < 0)
        return NULL;
    if (!(m = PyModule_Create(&kernel_module)))
        return NULL;
    if (PyModule_AddIntConstant(m, "LAYOUT", LAYOUT) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

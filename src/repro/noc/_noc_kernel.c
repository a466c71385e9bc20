/* Compiled cycle kernel of one MeshNetwork (see repro/noc/batched.py).
 *
 * A line-for-line port of the reference scan over flat integer state:
 * Channel.deliver, Router.step (_route_and_allocate, _vc_allocate,
 * _eject_candidates, _switch), SeparableAllocator.allocate,
 * _OutputPort.free_vc, the queueing half of MeshNetwork.try_inject,
 * MeshNetwork._drain_source, _pick_injection_vc and MeshNetwork._eject,
 * with NetworkStats.record_offer, record_injection and record_ejection.
 * Every array belongs to the Python side (array('i') objects of 32-bit
 * words); the kernel keeps no state between calls and no pointer past the
 * call that obtained it.  The field layout below is mirrored in
 * batched.py; LAYOUT guards against a mismatch.
 *
 * Three functions:
 *   accept(st, slots, routes, packets, occ, stats, packet, node, route,
 *          nflits) -> slot, or -1 if no slot is free
 *       one per admitted packet: rotate the node's injection port, take a
 *       free slot, link the packet onto that port's FIFO, count the offer;
 *   sweep(st, slots, routes, packets, finals, stats, ejected, now)
 *          -> packets or None
 *       once per cycle: channel delivery, then every occupied router in
 *       mesh order; returns the completed packets in ejection order, each
 *       recorded, its slot freed;
 *   drain(st, slots, routes, packets, occ, stats, injected, now) -> None
 *       once per cycle: one source-drain pass, recording every packet whose
 *       head leaves its FIFO.
 * All three write their counts and records into the NetworkStats object
 * ``stats``, exactly as the reference's record_* methods do, but for its
 * per-node flit counters: ``ejected`` and ``injected`` are those, each an
 * array('q') indexed by node id (the router index), incremented in place
 * at the ejecting router and at the source port's node.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define LAYOUT 4
#define MAX_PORTS 16
#define MAX_VCS 32
#define OUT_NONE (-1)
#define OUT_EJECT (-2)
/* Cycles are stored in 32-bit words; a cycle beyond MAX_CYCLE (leaving
 * room for pipeline and channel delays below 2**20) is refused. */
#define MAX_CYCLE (INT32_MAX - (1 << 20))

typedef int32_t word;

/* Header slots of the state array ``st``: sizes, live counters, and the
 * offset of every region. */
enum {
    H_LAYOUT, H_SIZE, H_NR, H_V, H_DEPTH, H_NCH, H_NSRC, H_NSETS,
    H_FCAP, H_CCAP, H_BUFFERED, H_SRCFLITS, H_NACTIVE, H_FREE,
    H_ROUTER, H_IN, H_OUT, H_CREDITS, H_OWNER, H_VCPTR, H_EJ, H_CELL,
    H_FLIT, H_CH, H_CHFLIT, H_CHCRED, H_ACTIVE, H_SRC, H_SETS, H_NODE,
    H_COUNT
};
/* Per router. */
enum { R_NIN, R_NOUT, R_IN_BASE, R_OUT_BASE, R_NEJ, R_EJ_BASE, R_PIPE,
       R_OCC, R_VAROT, R_EJPTR, R_F };
/* Per input port (global index) and per output port (global index). */
enum { IN_CH, IN_PTR, IN_F };
enum { OUT_CH, OUT_PTR, OUT_F };
/* Per input VC cell (input * V + vc): a ring of ``depth`` flits. */
enum { C_HEAD, C_LEN, C_OUT, C_OUTVC, C_F };
enum { FL_SLOT, FL_INDEX, FL_READY, FL_F };
/* Per channel, its flit ring entries and its credit ring entries. */
enum { CH_DST_IN, CH_DST_R, CH_SRC_OUT, CH_LAT, CH_CDELAY, CH_CARRIED,
       CH_FHEAD, CH_FLEN, CH_CHEAD, CH_CLEN, CH_ACTIVE, CH_F };
enum { CF_TIME, CF_SLOT, CF_INDEX, CF_VC, CF_READY, CF_F };
enum { CC_TIME, CC_VC, CC_F };
/* Per source port: its router, injection input, FIFO (linked through the
 * slot table) and the packet it is serializing. */
enum { S_NODE, S_IN, S_FHEAD, S_FTAIL, S_CUR, S_NEXT, S_VC, S_F };
/* Per node: its first source port, its port count and the round-robin
 * pointer over them. */
enum { N_SRC, N_NSRC, N_RR, N_F };
/* Slot table: one row per packet slot.  SL_NEXT links a queued packet to
 * the next one in its source FIFO, and a free slot to the next free one
 * (the list starts at H_FREE).  SL_INJECTED is the cycle the head left
 * the FIFO. */
enum { SL_NFLITS, SL_ROUTE, SL_HOP, SL_GOT, SL_NEXT, SL_INJECTED, SL_F };
/* Route records: hop count, injection VC set, index of the final (group,
 * phase) in ``finals`` (-1 if the route changes neither), then per hop
 * the output position and the VC set. */
enum { RT_LEN, RT_INJSET, RT_FINAL, RT_HOPS };

/* Interned attribute names. */
enum {
    A_XBAR, A_READS, A_WRITES, A_HOPS, A_PKT_OFF, A_FLIT_OFF, A_PKT_INJ,
    A_FLIT_INJ, A_PKT_EJ, A_FLIT_EJ, A_PER_CLASS, A_PACKETS, A_FLITS,
    A_LAT_SUM, A_NETLAT_SUM, A_LAT_HIST, A_NETLAT_HIST, A_COUNTS, A_TOTAL,
    A_MIN, A_MAX, A_LIMIT, A_INJECTED, A_EJECTED, A_CREATED, A_TCLASS,
    A_GROUP, A_PHASE, A_COUNT
};
static const char *const attr_names[A_COUNT] = {
    "crossbar_traversals", "buffer_reads", "buffer_writes",
    "link_flit_hops", "packets_offered", "flits_offered",
    "packets_injected", "flits_injected", "packets_ejected",
    "flits_ejected", "per_class", "packets", "flits", "latency_sum",
    "network_latency_sum", "latency_hist", "network_latency_hist",
    "counts", "total", "_min", "_max", "linear_limit", "injected",
    "ejected", "created", "traffic_class", "group", "phase",
};
static PyObject *attr[A_COUNT];

typedef struct {
    word *st, *slots, *occ;
    const word *routes;
    Py_ssize_t nslots, nroutes;
    int64_t nr, V, depth, nch, nsrc, nsets, fcap, ccap;
    word *router, *in, *out, *credits, *owner, *vcptr, *ej, *cell;
    word *flit, *ch, *chflit, *chcred, *active, *src, *sets, *node;
    PyObject *packets;            /* list: the Packet in each slot, or None */
    PyObject *finals;             /* list: (group, phase) per final state */
} Net;

static int
fail(const char *message)
{
    PyErr_SetString(PyExc_RuntimeError, message);
    return -1;
}

/* Acquire the buffer of an array of ``format`` ("i": 32-bit words, "q":
 * 64-bit counters); the caller releases it before returning. */
static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, const char *format,
           const char *what)
{
    int flags = PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *fmt = view->format;
    Py_ssize_t size = *format == 'q' ? sizeof(int64_t) : sizeof(word);
    if (view->itemsize != size || fmt == NULL || strcmp(fmt, format) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('%s')", what,
                     format);
        return -1;
    }
    return 0;
}

static int
load_net(Net *n, Py_buffer *st, Py_buffer *slots, Py_buffer *routes)
{
    word *s = (word *)st->buf;
    Py_ssize_t len = st->len / (Py_ssize_t)sizeof(word);
    if (len < H_COUNT || s[H_LAYOUT] != LAYOUT || s[H_SIZE] != len) {
        PyErr_SetString(PyExc_ValueError,
                        "state array does not match the kernel layout");
        return -1;
    }
    for (int h = H_ROUTER; h <= H_NODE; h++) {
        if (s[h] < H_COUNT || s[h] > len) {
            PyErr_SetString(PyExc_ValueError, "state offset out of range");
            return -1;
        }
    }
    n->st = s;
    n->slots = (word *)slots->buf;
    n->nslots = slots->len / (Py_ssize_t)sizeof(word) / SL_F;
    n->routes = (const word *)routes->buf;
    n->nroutes = routes->len / (Py_ssize_t)sizeof(word);
    n->nr = s[H_NR];
    n->V = s[H_V];
    n->depth = s[H_DEPTH];
    n->nch = s[H_NCH];
    n->nsrc = s[H_NSRC];
    n->nsets = s[H_NSETS];
    n->fcap = s[H_FCAP];
    n->ccap = s[H_CCAP];
    if (n->V < 1 || n->V > MAX_VCS || n->depth < 1 || n->fcap < 1
            || n->ccap < 1) {
        PyErr_SetString(PyExc_ValueError, "state sizes out of range");
        return -1;
    }
    n->router = s + s[H_ROUTER];
    n->in = s + s[H_IN];
    n->out = s + s[H_OUT];
    n->credits = s + s[H_CREDITS];
    n->owner = s + s[H_OWNER];
    n->vcptr = s + s[H_VCPTR];
    n->ej = s + s[H_EJ];
    n->cell = s + s[H_CELL];
    n->flit = s + s[H_FLIT];
    n->ch = s + s[H_CH];
    n->chflit = s + s[H_CHFLIT];
    n->chcred = s + s[H_CHCRED];
    n->active = s + s[H_ACTIVE];
    n->src = s + s[H_SRC];
    n->sets = s + s[H_SETS];
    n->node = s + s[H_NODE];
    n->occ = NULL;
    n->packets = n->finals = NULL;
    return 0;
}

static int
add_stat(PyObject *stats, PyObject *name, int64_t delta)
{
    if (!delta)
        return 0;
    PyObject *old = PyObject_GetAttr(stats, name);
    if (old == NULL)
        return -1;
    PyObject *d = PyLong_FromLongLong(delta);
    if (d == NULL) {
        Py_DECREF(old);
        return -1;
    }
    PyObject *sum = PyNumber_Add(old, d);
    Py_DECREF(old);
    Py_DECREF(d);
    if (sum == NULL)
        return -1;
    int rc = PyObject_SetAttr(stats, name, sum);
    Py_DECREF(sum);
    return rc;
}

/* dict[key] = dict.get(key, 0) + delta */
static int
dict_add(PyObject *dict, PyObject *key, int64_t delta)
{
    PyObject *old = PyDict_GetItemWithError(dict, key);
    if (old == NULL && PyErr_Occurred())
        return -1;
    PyObject *d = PyLong_FromLongLong(delta);
    if (d == NULL)
        return -1;
    PyObject *sum = d;
    if (old != NULL) {
        Py_INCREF(old);
        sum = PyNumber_Add(old, d);
        Py_DECREF(old);
        Py_DECREF(d);
        if (sum == NULL)
            return -1;
    }
    int rc = PyDict_SetItem(dict, key, sum);
    Py_DECREF(sum);
    return rc;
}

/* A dict attribute of ``obj``, fetched once per call into ``*slot``. */
static PyObject *
dict_attr(PyObject **slot, PyObject *obj, PyObject *name)
{
    if (*slot == NULL) {
        PyObject *d = PyObject_GetAttr(obj, name);
        if (d == NULL)
            return NULL;
        if (!PyDict_Check(d)) {
            Py_DECREF(d);
            PyErr_Format(PyExc_TypeError, "%U must be a dict", name);
            return NULL;
        }
        *slot = d;
    }
    return *slot;
}

static int
set_int_attr(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
get_int_attr(PyObject *obj, PyObject *name, int64_t *value)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *value = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return *value == -1 && PyErr_Occurred() ? -1 : 0;
}

/* One StreamingHistogram's samples in this call: each bucket count goes
 * straight into its ``counts`` dict, in sample order, bucketed as
 * StreamingHistogram.add buckets; ``total``, ``_min`` and ``_max`` are
 * written once, at the end of the call. */
typedef struct {
    PyObject *hist, *counts;
    int64_t limit, added, min, max;
} Hist;

static int
hist_open(Hist *h, PyObject *owner, PyObject *name)
{
    if ((h->hist = PyObject_GetAttr(owner, name)) == NULL)
        return -1;
    if (dict_attr(&h->counts, h->hist, attr[A_COUNTS]) == NULL
            || get_int_attr(h->hist, attr[A_LIMIT], &h->limit) < 0)
        return -1;
    h->min = INT64_MAX;
    h->max = -1;
    return 0;
}

static int
hist_add(Hist *h, int64_t value)
{
    if (value < 0) {
        PyErr_Format(PyExc_ValueError,
                     "histogram samples must be >= 0, got %lld",
                     (long long)value);
        return -1;
    }
    int64_t bucket = value;
    if (value >= h->limit)                /* -value.bit_length() */
        for (bucket = 0; value >> -bucket; bucket--)
            ;
    PyObject *key = PyLong_FromLongLong(bucket);
    if (key == NULL)
        return -1;
    int rc = dict_add(h->counts, key, 1);
    Py_DECREF(key);
    if (rc < 0)
        return -1;
    h->added++;
    if (value < h->min)
        h->min = value;
    if (value > h->max)
        h->max = value;
    return 0;
}

/* obj.name = value if obj.name is None or value beats it (op Py_LT for a
 * minimum, Py_GT for a maximum). */
static int
improve(PyObject *obj, PyObject *name, int64_t value, int op)
{
    PyObject *old = PyObject_GetAttr(obj, name);
    if (old == NULL)
        return -1;
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL) {
        Py_DECREF(old);
        return -1;
    }
    int better = old == Py_None ? 1 : PyObject_RichCompareBool(v, old, op);
    Py_DECREF(old);
    int rc = better < 0 ? -1 : better ? PyObject_SetAttr(obj, name, v) : 0;
    Py_DECREF(v);
    return rc;
}

static int
hist_flush(Hist *h)
{
    if (!h->added)
        return 0;
    if (add_stat(h->hist, attr[A_TOTAL], h->added) < 0
            || improve(h->hist, attr[A_MIN], h->min, Py_LT) < 0
            || improve(h->hist, attr[A_MAX], h->max, Py_GT) < 0)
        return -1;
    return 0;
}

/* One per-class _ClassStats's records in this call. */
#define MAX_CLASSES 4
typedef struct {
    long value;
    PyObject *cs;
    int64_t packets, flits, latency_sum, network_latency_sum;
    Hist latency, network_latency;
} ClassRec;

/* The NetworkStats records of one kernel call: scalar sums are written
 * once, at the end of the call (``rec_finish``); per-node flit counts go
 * into their arrays, and histogram buckets into their dicts, packet by
 * packet, so every dict sees its keys in the order the reference's
 * record_* calls insert them. */
typedef struct {
    PyObject *stats, *per_class;
    int64_t *node_flits;            /* the call's per-node flit counter */
    int64_t injected, injected_flits;
    int64_t ejected, ejected_flits;
    int nclasses;
    ClassRec cls[MAX_CLASSES];
} Rec;

static void
rec_init(Rec *r, PyObject *stats)
{
    memset(r, 0, sizeof(*r));
    r->stats = stats;
}

/* stats.per_class[packet.traffic_class], opened once per call. */
static ClassRec *
rec_class(Rec *r, PyObject *packet)
{
    PyObject *tclass = PyObject_GetAttr(packet, attr[A_TCLASS]);
    if (tclass == NULL)
        return NULL;
    long value = PyLong_AsLong(tclass);
    if (value == -1 && PyErr_Occurred()) {
        Py_DECREF(tclass);
        return NULL;
    }
    for (int i = 0; i < r->nclasses; i++) {
        if (r->cls[i].value == value) {
            Py_DECREF(tclass);
            return &r->cls[i];
        }
    }
    if (r->nclasses == MAX_CLASSES) {
        Py_DECREF(tclass);
        fail("more traffic classes than the kernel records");
        return NULL;
    }
    if (r->per_class == NULL
            && (r->per_class = PyObject_GetAttr(r->stats,
                                                attr[A_PER_CLASS])) == NULL) {
        Py_DECREF(tclass);
        return NULL;
    }
    PyObject *cs = PyObject_GetItem(r->per_class, tclass);
    Py_DECREF(tclass);
    if (cs == NULL)
        return NULL;
    ClassRec *c = &r->cls[r->nclasses++];
    c->value = value;
    c->cs = cs;
    if (hist_open(&c->latency, cs, attr[A_LAT_HIST]) < 0
            || hist_open(&c->network_latency, cs, attr[A_NETLAT_HIST]) < 0)
        return NULL;
    return c;
}

/* NetworkStats.record_injection at ``node``, with packet.injected = now. */
static int
record_injection(Rec *r, PyObject *packet, int64_t node, int64_t nflits,
                 int64_t now)
{
    if (set_int_attr(packet, attr[A_INJECTED], now) < 0)
        return -1;
    r->injected++;
    r->injected_flits += nflits;
    r->node_flits[node] += nflits;
    return 0;
}

/* NetworkStats.record_ejection at ``node``, with packet.ejected = now;
 * ``injected`` is the cycle the kernel set packet.injected to. */
static int
record_ejection(Rec *r, PyObject *packet, int64_t node, int64_t nflits,
                int64_t injected, int64_t now)
{
    int64_t created;
    if (set_int_attr(packet, attr[A_EJECTED], now) < 0
            || get_int_attr(packet, attr[A_CREATED], &created) < 0)
        return -1;
    ClassRec *c = rec_class(r, packet);
    if (c == NULL)
        return -1;
    int64_t latency = now - created, network_latency = now - injected;
    r->ejected++;
    r->ejected_flits += nflits;
    c->packets++;
    c->flits += nflits;
    c->latency_sum += latency;
    c->network_latency_sum += network_latency;
    if (hist_add(&c->latency, latency) < 0
            || hist_add(&c->network_latency, network_latency) < 0)
        return -1;
    r->node_flits[node] += nflits;
    return 0;
}

/* Write the call's scalar sums into ``stats`` and release every
 * reference.  A failed call (``ok`` false) still writes what it recorded
 * and keeps its own exception. */
static int
rec_finish(Rec *r, int ok)
{
    PyObject *type = NULL, *value = NULL, *tb = NULL;
    if (!ok)
        PyErr_Fetch(&type, &value, &tb);
    PyObject *s = r->stats;
    int rc = add_stat(s, attr[A_PKT_INJ], r->injected) == 0
        && add_stat(s, attr[A_FLIT_INJ], r->injected_flits) == 0
        && add_stat(s, attr[A_PKT_EJ], r->ejected) == 0
        && add_stat(s, attr[A_FLIT_EJ], r->ejected_flits) == 0 ? 0 : -1;
    for (int i = 0; i < r->nclasses; i++) {
        ClassRec *c = &r->cls[i];
        if (rc == 0 && c->latency.counts && c->network_latency.counts
                && (add_stat(c->cs, attr[A_PACKETS], c->packets) < 0
                    || add_stat(c->cs, attr[A_FLITS], c->flits) < 0
                    || add_stat(c->cs, attr[A_LAT_SUM], c->latency_sum) < 0
                    || add_stat(c->cs, attr[A_NETLAT_SUM],
                                c->network_latency_sum) < 0
                    || hist_flush(&c->latency) < 0
                    || hist_flush(&c->network_latency) < 0))
            rc = -1;
        Py_XDECREF(c->cs);
        Py_XDECREF(c->latency.hist);
        Py_XDECREF(c->latency.counts);
        Py_XDECREF(c->network_latency.hist);
        Py_XDECREF(c->network_latency.counts);
    }
    Py_XDECREF(r->per_class);
    if (!ok) {
        PyErr_Restore(type, value, tb);
        return -1;
    }
    return rc;
}

static inline word *
cell_at(Net *n, int64_t ci)
{
    return n->cell + ci * C_F;
}

static inline word *
flit_at(Net *n, int64_t ci, int64_t k)
{
    return n->flit + (ci * n->depth + k) * FL_F;
}

/* Router.deliver_flit: buffer one flit. */
static int
push_flit(Net *n, int64_t r, int64_t ci, int64_t slot, int64_t index,
          int64_t now)
{
    word *c = cell_at(n, ci);
    if (c[C_LEN] >= n->depth)
        return fail("buffer overflow: credit accounting violated");
    word *R = n->router + r * R_F;
    word *f = flit_at(n, ci, (c[C_HEAD] + c[C_LEN]) % n->depth);
    f[FL_SLOT] = slot;
    f[FL_INDEX] = index;
    f[FL_READY] = now + R[R_PIPE];
    c[C_LEN]++;
    R[R_OCC]++;
    return 0;
}

static void
activate(Net *n, int64_t c)
{
    word *ch = n->ch + c * CH_F;
    if (!ch[CH_ACTIVE]) {
        ch[CH_ACTIVE] = 1;
        n->active[n->st[H_NACTIVE]++] = c;
    }
}

/* Channel.send_flit */
static int
send_flit(Net *n, int64_t c, const word *f, int64_t vc, int64_t now)
{
    word *ch = n->ch + c * CH_F;
    if (ch[CH_FLEN] >= n->fcap)
        return fail("channel flit ring overflow");
    activate(n, c);
    word *e = n->chflit
        + (c * n->fcap + (ch[CH_FHEAD] + ch[CH_FLEN]) % n->fcap) * CF_F;
    e[CF_TIME] = now + ch[CH_LAT];
    e[CF_SLOT] = f[FL_SLOT];
    e[CF_INDEX] = f[FL_INDEX];
    e[CF_VC] = vc;
    e[CF_READY] = f[FL_READY];
    ch[CH_FLEN]++;
    ch[CH_CARRIED]++;
    return 0;
}

/* Channel.send_credit */
static int
send_credit(Net *n, int64_t c, int64_t vc, int64_t now)
{
    word *ch = n->ch + c * CH_F;
    if (ch[CH_CLEN] >= n->ccap)
        return fail("channel credit ring overflow");
    activate(n, c);
    word *e = n->chcred
        + (c * n->ccap + (ch[CH_CHEAD] + ch[CH_CLEN]) % n->ccap) * CC_F;
    e[CC_TIME] = now + ch[CH_CDELAY];
    e[CC_VC] = vc;
    ch[CH_CLEN]++;
    return 0;
}

/* Channel.deliver over the active channels, in activation order, dropping
 * the ones left idle.  Returns the flits delivered, or -1. */
static int64_t
deliver_channels(Net *n, int64_t now)
{
    int64_t delivered = 0, kept = 0, nact = n->st[H_NACTIVE];
    for (int64_t i = 0; i < nact; i++) {
        int64_t c = n->active[i];
        word *ch = n->ch + c * CH_F;
        while (ch[CH_FLEN] > 0) {
            word *e = n->chflit + (c * n->fcap + ch[CH_FHEAD]) * CF_F;
            if (e[CF_TIME] > now)
                break;
            if (push_flit(n, ch[CH_DST_R], ch[CH_DST_IN] * n->V + e[CF_VC],
                          e[CF_SLOT], e[CF_INDEX], now) < 0)
                return -1;
            ch[CH_FHEAD] = (ch[CH_FHEAD] + 1) % n->fcap;
            ch[CH_FLEN]--;
            delivered++;
        }
        while (ch[CH_CLEN] > 0) {
            word *e = n->chcred + (c * n->ccap + ch[CH_CHEAD]) * CC_F;
            if (e[CC_TIME] > now)
                break;
            n->credits[ch[CH_SRC_OUT] * n->V + e[CC_VC]]++;
            ch[CH_CHEAD] = (ch[CH_CHEAD] + 1) % n->ccap;
            ch[CH_CLEN]--;
        }
        if (ch[CH_FLEN] || ch[CH_CLEN])
            n->active[kept++] = c;
        else
            ch[CH_ACTIVE] = 0;
    }
    n->st[H_NACTIVE] = kept;
    return delivered;
}

/* _OutputPort.free_vc: a free VC among the allowed set, rotating one
 * pointer per set (the pointer exists only once a multi-VC pick has
 * succeeded; -1 before). */
static int64_t
free_vc(Net *n, int64_t og, int64_t set)
{
    const word *s = n->sets + set * (1 + n->V);
    int64_t count = s[0];
    const word *vcs = s + 1;
    word *own = n->owner + og * n->V;
    if (count == 1)
        return own[vcs[0]] < 0 ? vcs[0] : -1;
    word *ptr = n->vcptr + og * n->nsets + set;
    int64_t p = *ptr < 0 ? 0 : *ptr;
    for (int64_t k = 0; k < count; k++) {
        int64_t vc = vcs[(p + k) % count];
        if (own[vc] < 0) {
            *ptr = (p + k + 1) % count;
            return vc;
        }
    }
    return -1;
}

/* Router._vc_allocate with _eject_candidates. */
static int
vc_allocate(Net *n, word *R, int64_t pos, int64_t v, word *c,
            int64_t set)
{
    if (set < 0 || set >= n->nsets)
        return fail("route names an unknown VC set");
    int64_t owner = pos * n->V + v;
    if (c[C_OUT] == OUT_EJECT) {
        int64_t nej = R[R_NEJ], p = 0;
        const word *ej = n->ej + R[R_EJ_BASE];
        if (nej > 1) {
            p = R[R_EJPTR];
            R[R_EJPTR] = (p + 1) % nej;
        }
        for (int64_t k = 0; k < nej; k++) {
            int64_t o = ej[(p + k) % nej];
            int64_t og = R[R_OUT_BASE] + o;
            int64_t vc = free_vc(n, og, set);
            if (vc >= 0) {
                n->owner[og * n->V + vc] = owner;
                c[C_OUTVC] = vc;
                c[C_OUT] = o;
                return 0;
            }
        }
        return 0;
    }
    int64_t og = R[R_OUT_BASE] + c[C_OUT];
    int64_t vc = free_vc(n, og, set);
    if (vc >= 0) {
        n->owner[og * n->V + vc] = owner;
        c[C_OUTVC] = vc;
    }
    return 0;
}

/* The packet in ``slot``, borrowed from the packets list. */
static PyObject *
packet_at(Net *n, int64_t slot)
{
    if (slot < 0 || slot >= PyList_GET_SIZE(n->packets)) {
        fail("slot outside the packet list");
        return NULL;
    }
    PyObject *packet = PyList_GET_ITEM(n->packets, slot);
    if (packet == Py_None) {
        fail("in-flight slot holds no packet");
        return NULL;
    }
    return packet;
}

/* True if ``rid`` starts a route record that lies inside ``routes``. */
static int
route_in_range(Net *n, int64_t rid)
{
    return rid >= 0 && rid + RT_HOPS <= n->nroutes
        && n->routes[rid + RT_LEN] >= 0
        && rid + RT_HOPS + 2 * (int64_t)n->routes[rid + RT_LEN] <= n->nroutes;
}

/* Router._route_and_allocate: rotated port walk, route computation from
 * the packet's registered hop list, VC allocation. */
static int
route_and_allocate(Net *n, word *R, int64_t now)
{
    int64_t nin = R[R_NIN], V = n->V, rotate = R[R_VAROT];
    R[R_VAROT] = nin > 0 ? (rotate + 1) % nin : 0;
    for (int64_t i = 0; i < nin; i++) {
        int64_t pos = (i + rotate) % nin;
        int64_t base = (R[R_IN_BASE] + pos) * V;
        for (int64_t v = 0; v < V; v++) {
            word *c = cell_at(n, base + v);
            if (!c[C_LEN])
                continue;
            word *f = flit_at(n, base + v, c[C_HEAD]);
            if (f[FL_INDEX] != 0) {
                if (c[C_OUT] == OUT_NONE)
                    return fail("body flit at head of VC without route");
                continue;
            }
            if (f[FL_READY] > now)
                continue;
            word *sl = n->slots + f[FL_SLOT] * SL_F;
            if (!route_in_range(n, sl[SL_ROUTE]))
                return fail("slot names a route outside the route table");
            const word *rt = n->routes + sl[SL_ROUTE];
            if (c[C_OUT] == OUT_NONE) {
                int64_t h = sl[SL_HOP];
                if (h >= rt[RT_LEN])
                    return fail("packet ran past the end of its route");
                int64_t out = rt[RT_HOPS + 2 * h];
                if (out != OUT_EJECT && (out < 0 || out >= R[R_NOUT]))
                    return fail("route names a missing output port");
                c[C_OUT] = out;
                sl[SL_HOP] = h + 1;
            }
            if (c[C_OUTVC] < 0
                    && vc_allocate(n, R, pos, v, c,
                                   rt[RT_HOPS + 2 * (sl[SL_HOP] - 1) + 1]) < 0)
                return -1;
        }
    }
    return 0;
}

/* MeshNetwork._eject for a packet completed at node ``node``: record
 * it, leave it the group and phase its route's last next_port call
 * leaves, hand it to Python and free its slot. */
static int
complete(Net *n, int64_t node, int64_t slot, int64_t now, PyObject **done,
         Rec *rec)
{
    PyObject *packet = packet_at(n, slot);
    if (packet == NULL)
        return -1;
    word *sl = n->slots + slot * SL_F;
    if (!route_in_range(n, sl[SL_ROUTE]))
        return fail("slot names a route outside the route table");
    int64_t final = n->routes[sl[SL_ROUTE] + RT_FINAL];
    if (final >= 0) {
        if (final >= PyList_GET_SIZE(n->finals))
            return fail("route names a missing final state");
        PyObject *state = PyList_GET_ITEM(n->finals, final);
        if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "final states are (group, phase) tuples");
            return -1;
        }
        if (PyObject_SetAttr(packet, attr[A_GROUP],
                             PyTuple_GET_ITEM(state, 0)) < 0
                || PyObject_SetAttr(packet, attr[A_PHASE],
                                    PyTuple_GET_ITEM(state, 1)) < 0)
            return -1;
    }
    if (record_ejection(rec, packet, node, sl[SL_NFLITS], sl[SL_INJECTED],
                        now) < 0)
        return -1;
    if (*done == NULL && (*done = PyList_New(0)) == NULL)
        return -1;
    if (PyList_Append(*done, packet) < 0)
        return -1;
    Py_INCREF(Py_None);
    PyList_SetItem(n->packets, slot, Py_None);
    sl[SL_NEXT] = n->st[H_FREE];
    n->st[H_FREE] = slot;
    return 0;
}

/* Router._switch of router ``r`` with SeparableAllocator.allocate: switch
 * requests, input-first separable allocation with iSLIP pointer updates,
 * then traversal of every grant in the allocator's order. */
static int
switch_traverse(Net *n, int64_t r, int64_t now, PyObject **done, Rec *rec,
                int64_t *moved)
{
    word *R = n->router + r * R_F;
    int64_t nin = R[R_NIN], nout = R[R_NOUT], V = n->V;
    int64_t in_base = R[R_IN_BASE], out_base = R[R_OUT_BASE];
    uint32_t mask[MAX_PORTS];
    int any = 0;
    if (nin < 0 || nin > MAX_PORTS || nout < 0 || nout > MAX_PORTS)
        return fail("router port count out of range");
    for (int64_t pos = 0; pos < nin; pos++) {
        mask[pos] = 0;
        int64_t base = (in_base + pos) * V;
        for (int64_t v = 0; v < V; v++) {
            word *c = cell_at(n, base + v);
            if (c[C_OUTVC] < 0 || !c[C_LEN])
                continue;
            if (flit_at(n, base + v, c[C_HEAD])[FL_READY] > now)
                continue;
            int64_t og = out_base + c[C_OUT];
            if (n->credits[og * V + c[C_OUTVC]] <= 0)
                continue;
            mask[pos] |= (uint32_t)1 << v;
            any = 1;
        }
    }
    if (!any)
        return 0;

    /* Stage 1: each input's first requesting VC at/after its pointer. */
    int64_t s1vc[MAX_PORTS], s1out[MAX_PORTS];
    for (int64_t pos = 0; pos < nin; pos++) {
        s1out[pos] = -1;
        if (!mask[pos])
            continue;
        int64_t ptr = n->in[(in_base + pos) * IN_F + IN_PTR];
        for (int64_t off = 0; off < V; off++) {
            int64_t vc = (ptr + off) % V;
            if (mask[pos] >> vc & 1) {
                s1vc[pos] = vc;
                s1out[pos] = cell_at(n, (in_base + pos) * V + vc)[C_OUT];
                break;
            }
        }
    }
    /* Stage 2: outputs in first-appearance order, each granting its
     * first contender at/after the output pointer. */
    uint32_t contenders[MAX_PORTS];
    int64_t order[MAX_PORTS], norder = 0;
    memset(contenders, 0, sizeof(contenders[0]) * (size_t)nout);
    for (int64_t pos = 0; pos < nin; pos++) {
        int64_t o = s1out[pos];
        if (o < 0)
            continue;
        if (!contenders[o])
            order[norder++] = o;
        contenders[o] |= (uint32_t)1 << pos;
    }
    int64_t gpos[MAX_PORTS], gvc[MAX_PORTS], gout[MAX_PORTS], ng = 0;
    for (int64_t k = 0; k < norder; k++) {
        int64_t o = order[k];
        word *optr = n->out + (out_base + o) * OUT_F + OUT_PTR;
        for (int64_t off = 0; off < nin; off++) {
            int64_t i = (*optr + off) % nin;
            if (contenders[o] >> i & 1) {
                *optr = (i + 1) % nin;
                n->in[(in_base + i) * IN_F + IN_PTR] = (s1vc[i] + 1) % V;
                gpos[ng] = i;
                gvc[ng] = s1vc[i];
                gout[ng] = o;
                ng++;
                break;
            }
        }
    }

    for (int64_t g = 0; g < ng; g++) {
        int64_t pos = gpos[g], v = gvc[g], o = gout[g];
        int64_t ci = (in_base + pos) * V + v;
        word *c = cell_at(n, ci);
        word f[FL_F];
        memcpy(f, flit_at(n, ci, c[C_HEAD]), sizeof(f));
        c[C_HEAD] = (c[C_HEAD] + 1) % n->depth;
        c[C_LEN]--;
        R[R_OCC]--;
        (*moved)++;
        int64_t og = out_base + o, ovc = c[C_OUTVC];
        n->credits[og * V + ovc]--;
        word *sl = n->slots + f[FL_SLOT] * SL_F;
        int tail = f[FL_INDEX] == sl[SL_NFLITS] - 1;
        int64_t och = n->out[og * OUT_F + OUT_CH];
        if (och < 0) {
            /* MeshNetwork._eject: reassembly; a tail completes. */
            if (++sl[SL_GOT] == sl[SL_NFLITS]) {
                sl[SL_GOT] = 0;
                if (complete(n, r, f[FL_SLOT], now, done, rec) < 0)
                    return -1;
            }
        }
        else if (send_flit(n, och, f, ovc, now) < 0)
            return -1;
        int64_t ich = n->in[(in_base + pos) * IN_F + IN_CH];
        if (ich >= 0 && send_credit(n, ich, v, now) < 0)
            return -1;
        if (tail) {
            n->owner[og * V + ovc] = -1;
            c[C_OUT] = OUT_NONE;
            c[C_OUTVC] = -1;
        }
    }
    return 0;
}

static int
parse_now(PyObject *obj, int64_t *now)
{
    *now = PyLong_AsLongLong(obj);
    if (*now == -1 && PyErr_Occurred())
        return -1;
    if (*now < 0 || *now > MAX_CYCLE) {
        PyErr_SetString(PyExc_OverflowError,
                        "cycle outside the compiled kernel's 32-bit range");
        return -1;
    }
    return 0;
}

static int
check_list(PyObject *obj, const char *what)
{
    if (PyList_Check(obj))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s must be a list", what);
    return -1;
}

/* The buffers an entry point holds, released together. */
typedef struct {
    Py_buffer view[5];
    int nheld;
} Views;

static void
release_views(Views *w)
{
    while (w->nheld > 0)
        PyBuffer_Release(&w->view[--w->nheld]);
}

/* Hold st, slots and routes (args[0..2]) and load the state. */
static int
load(Net *n, Views *w, PyObject *const *args)
{
    static const char *names[3] = {"st", "slots", "routes"};
    for (w->nheld = 0; w->nheld < 3; w->nheld++)
        if (get_buffer(args[w->nheld], &w->view[w->nheld], w->nheld < 2, "i",
                       names[w->nheld]) < 0)
            return -1;
    return load_net(n, &w->view[0], &w->view[1], &w->view[2]);
}

/* Hold a per-node array, checked to cover every node: ``occ`` ("i") or a
 * flit counter ("q"); NULL on an error. */
static void *
hold_nodes(Net *n, Views *w, PyObject *obj, const char *format,
           const char *what)
{
    Py_buffer *view = &w->view[w->nheld];
    if (get_buffer(obj, view, 1, format, what) < 0)
        return NULL;
    w->nheld++;
    if (view->len / view->itemsize < n->nr) {
        PyErr_Format(PyExc_ValueError, "%s is shorter than the mesh", what);
        return NULL;
    }
    return view->buf;
}

static PyObject *
k_sweep(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "sweep(st, slots, routes, packets, finals, stats, "
                        "ejected, now)");
        return NULL;
    }
    int64_t now;
    if (parse_now(args[7], &now) < 0 || check_list(args[3], "packets") < 0
            || check_list(args[4], "finals") < 0)
        return NULL;
    Views w;
    Net n;
    Rec rec;
    rec_init(&rec, args[5]);
    PyObject *done = NULL;
    int64_t delivered = 0, moved = 0;
    int ok = load(&n, &w, args) == 0
        && (rec.node_flits = hold_nodes(&n, &w, args[6], "q", "ejected"));
    if (ok) {
        n.packets = args[3];
        n.finals = args[4];
        delivered = deliver_channels(&n, now);
        ok = delivered >= 0;
    }
    if (ok) {
        n.st[H_BUFFERED] += delivered;
        for (int64_t r = 0; ok && n.st[H_BUFFERED] && r < n.nr; r++) {
            word *R = n.router + r * R_F;
            if (!R[R_OCC])
                continue;
            ok = route_and_allocate(&n, R, now) == 0
                && switch_traverse(&n, r, now, &done, &rec, &moved) == 0;
        }
        n.st[H_BUFFERED] -= moved;
    }
    release_views(&w);
    ok = rec_finish(&rec, ok) == 0 && ok;
    if (ok) {
        PyObject *stats = args[5];
        ok = add_stat(stats, attr[A_HOPS], delivered) == 0
            && add_stat(stats, attr[A_WRITES], delivered) == 0
            && add_stat(stats, attr[A_XBAR], moved) == 0
            && add_stat(stats, attr[A_READS], moved) == 0;
    }
    if (!ok) {
        Py_XDECREF(done);
        return NULL;
    }
    if (done == NULL)
        Py_RETURN_NONE;
    return done;
}

/* MeshNetwork._drain_source with _pick_injection_vc, every source port in
 * node order, recording each packet whose head leaves its FIFO.  Returns
 * the flits written into routers, or -1. */
static int64_t
drain_sources(Net *n, int64_t now, Rec *rec)
{
    int64_t writes = 0, V = n->V;
    for (int64_t p = 0; p < n->nsrc; p++) {
        word *S = n->src + p * S_F;
        if (S[S_CUR] < 0) {
            int64_t slot = S[S_FHEAD];
            if (slot < 0)
                continue;
            word *sl = n->slots + slot * SL_F;
            if (!route_in_range(n, sl[SL_ROUTE]))
                return fail("slot names a route outside the route table");
            const word *set = n->sets
                + n->routes[sl[SL_ROUTE] + RT_INJSET] * (1 + V);
            int64_t best = -1, best_space = 0;
            for (int64_t k = 0; k < set[0]; k++) {
                int64_t vc = set[1 + k];
                int64_t space = n->depth - cell_at(n, S[S_IN] * V + vc)[C_LEN];
                if (space > best_space) {
                    best = vc;
                    best_space = space;
                }
            }
            if (best < 0)
                continue;
            PyObject *packet = packet_at(n, slot);
            if (packet == NULL)
                return -1;
            S[S_FHEAD] = sl[SL_NEXT];
            if (S[S_FHEAD] < 0)
                S[S_FTAIL] = -1;
            sl[SL_NEXT] = -1;
            sl[SL_INJECTED] = now;
            S[S_CUR] = slot;
            S[S_NEXT] = 0;
            S[S_VC] = best;
            if (record_injection(rec, packet, S[S_NODE], sl[SL_NFLITS],
                                 now) < 0)
                return -1;
        }
        int64_t ci = S[S_IN] * V + S[S_VC];
        if (cell_at(n, ci)[C_LEN] >= n->depth)
            continue;
        if (push_flit(n, S[S_NODE], ci, S[S_CUR], S[S_NEXT], now) < 0)
            return -1;
        n->occ[S[S_NODE]]--;
        n->st[H_SRCFLITS]--;
        n->st[H_BUFFERED]++;
        writes++;
        if (++S[S_NEXT] == n->slots[S[S_CUR] * SL_F + SL_NFLITS]) {
            S[S_CUR] = -1;
            S[S_NEXT] = 0;
            S[S_VC] = -1;
        }
    }
    return writes;
}

static PyObject *
k_drain(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "drain(st, slots, routes, packets, occ, stats, "
                        "injected, now)");
        return NULL;
    }
    int64_t now;
    if (parse_now(args[7], &now) < 0 || check_list(args[3], "packets") < 0)
        return NULL;
    Views w;
    Net n;
    Rec rec;
    rec_init(&rec, args[5]);
    int64_t writes = 0;
    int ok = load(&n, &w, args) == 0
        && (n.occ = hold_nodes(&n, &w, args[4], "i", "occ"))
        && (rec.node_flits = hold_nodes(&n, &w, args[6], "q", "injected"));
    if (ok) {
        n.packets = args[3];
        writes = drain_sources(&n, now, &rec);
        ok = writes >= 0;
    }
    release_views(&w);
    ok = rec_finish(&rec, ok) == 0 && ok;
    if (ok)
        ok = add_stat(args[5], attr[A_WRITES], writes) == 0;
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

/* The queueing half of MeshNetwork.try_inject, for a packet whose source
 * queue has room and whose route is registered: rotate the node's
 * injection ports, take the free slot at the head of the free list and
 * link the packet onto the chosen port's FIFO.  Every argument is
 * range-checked before anything is written.  The slot, or -1 (nothing
 * written) when no slot is free, goes to *slot_out. */
static int
admit(Net *n, PyObject *packet, int64_t node, int64_t rid, int64_t nflits,
      int64_t *slot_out)
{
    if (node < 0 || node >= n->nr) {
        PyErr_Format(PyExc_ValueError, "node %lld outside the mesh",
                     (long long)node);
        return -1;
    }
    word *N = n->node + node * N_F;
    int64_t port = N[N_SRC] + N[N_RR];
    if (N[N_NSRC] < 1 || N[N_RR] < 0 || N[N_RR] >= N[N_NSRC]
            || N[N_SRC] < 0 || port >= n->nsrc) {
        PyErr_SetString(PyExc_ValueError, "source port out of range");
        return -1;
    }
    if (!route_in_range(n, rid) || n->routes[rid + RT_INJSET] < 0
            || n->routes[rid + RT_INJSET] >= n->nsets
            || n->routes[rid + RT_FINAL] < -1) {
        PyErr_Format(PyExc_ValueError, "route %lld out of range",
                     (long long)rid);
        return -1;
    }
    if (nflits < 1 || nflits > INT32_MAX - n->occ[node]
            || nflits > INT32_MAX - n->st[H_SRCFLITS]) {
        PyErr_Format(PyExc_ValueError, "flit count %lld out of range",
                     (long long)nflits);
        return -1;
    }
    int64_t slot = n->st[H_FREE];
    *slot_out = -1;
    if (slot < 0)
        return 0;
    if (slot >= n->nslots || slot >= PyList_GET_SIZE(n->packets)
            || PyList_GET_ITEM(n->packets, slot) != Py_None) {
        PyErr_SetString(PyExc_ValueError, "free slot out of range");
        return -1;
    }
    word *sl = n->slots + slot * SL_F;
    if (sl[SL_NEXT] < -1 || sl[SL_NEXT] >= n->nslots) {
        PyErr_SetString(PyExc_ValueError, "free slot out of range");
        return -1;
    }
    n->st[H_FREE] = sl[SL_NEXT];
    Py_INCREF(packet);
    PyList_SetItem(n->packets, slot, packet);
    sl[SL_NFLITS] = nflits;
    sl[SL_ROUTE] = rid;
    sl[SL_HOP] = 0;
    sl[SL_GOT] = 0;
    sl[SL_NEXT] = -1;
    sl[SL_INJECTED] = -1;
    word *S = n->src + port * S_F;
    if (S[S_FTAIL] < 0)
        S[S_FHEAD] = slot;
    else
        n->slots[S[S_FTAIL] * SL_F + SL_NEXT] = slot;
    S[S_FTAIL] = slot;
    N[N_RR] = (N[N_RR] + 1) % N[N_NSRC];
    n->occ[node] += nflits;
    n->st[H_SRCFLITS] += nflits;
    *slot_out = slot;
    return 0;
}

static PyObject *
k_accept(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError,
                        "accept(st, slots, routes, packets, occ, stats, "
                        "packet, node, route, nflits)");
        return NULL;
    }
    int64_t field[3];
    for (int k = 0; k < 3; k++) {
        field[k] = PyLong_AsLongLong(args[7 + k]);
        if (field[k] == -1 && PyErr_Occurred())
            return NULL;
    }
    if (check_list(args[3], "packets") < 0)
        return NULL;
    Views w;
    Net n;
    int64_t slot = -1;
    int ok = load(&n, &w, args) == 0
        && (n.occ = hold_nodes(&n, &w, args[4], "i", "occ"));
    if (ok) {
        n.packets = args[3];
        ok = admit(&n, args[6], field[0], field[1], field[2], &slot) == 0;
    }
    release_views(&w);
    /* NetworkStats.record_offer */
    if (!ok || (slot >= 0 && (add_stat(args[5], attr[A_PKT_OFF], 1) < 0
                              || add_stat(args[5], attr[A_FLIT_OFF],
                                          field[2]) < 0)))
        return NULL;
    return PyLong_FromLongLong(slot);
}

static PyMethodDef kernel_methods[] = {
    {"accept", (PyCFunction)(void (*)(void))k_accept, METH_FASTCALL,
     "Queue one admitted packet at its source node."},
    {"sweep", (PyCFunction)(void (*)(void))k_sweep, METH_FASTCALL,
     "Deliver channels and step every occupied router for one cycle."},
    {"drain", (PyCFunction)(void (*)(void))k_drain, METH_FASTCALL,
     "Drain every source port once."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_noc_kernel",
    .m_doc = "Compiled cycle kernel of one mesh network.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__noc_kernel(void)
{
    for (int i = 0; i < A_COUNT; i++) {
        if (attr[i] == NULL
                && (attr[i] = PyUnicode_InternFromString(attr_names[i]))
                   == NULL)
            return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "LAYOUT", LAYOUT) < 0
            || PyModule_AddIntConstant(module, "MAX_CYCLE", MAX_CYCLE) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

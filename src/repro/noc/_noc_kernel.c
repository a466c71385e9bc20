/* Compiled cycle kernel of one MeshNetwork (see repro/noc/batched.py).
 *
 * A line-for-line port of the reference scan over flat integer state:
 * Channel.deliver, Router.step (_route_and_allocate, _vc_allocate,
 * _eject_candidates, _switch), SeparableAllocator.allocate,
 * _OutputPort.free_vc, MeshNetwork._drain_source, _pick_injection_vc and
 * the reassembly half of MeshNetwork._eject.  Every array belongs to the
 * Python side (array('i') objects of 32-bit words); the kernel keeps no
 * state between calls and no pointer past the call that obtained it.
 * The field layout below is mirrored in batched.py; LAYOUT guards
 * against a mismatch.
 *
 * Two functions, each called at most once per network per cycle:
 *   sweep(st, slots, routes, stats, now) -> completed slots or None
 *       channel delivery, then every occupied router in mesh order;
 *   drain(st, slots, routes, occ, pending, stats, now) -> slots or None
 *       append the cycle's accepted packets, then one source-drain pass;
 *       returns the slots whose head left its source FIFO.
 * Both add their activity counts to the NetworkStats object ``stats``.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define LAYOUT 2
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
    H_FCAP, H_CCAP, H_BUFFERED, H_SRCFLITS, H_NACTIVE,
    H_ROUTER, H_IN, H_OUT, H_CREDITS, H_OWNER, H_VCPTR, H_EJ, H_CELL,
    H_FLIT, H_CH, H_CHFLIT, H_CHCRED, H_ACTIVE, H_SRC, H_SETS,
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
/* Slot table (one row per packet slot) and route records. */
enum { SL_NFLITS, SL_ROUTE, SL_HOP, SL_GOT, SL_NEXT, SL_F };
enum { RT_LEN, RT_INJSET, RT_HOPS };

static PyObject *s_xbar, *s_reads, *s_writes, *s_hops;

typedef struct {
    word *st, *slots, *occ;
    const word *routes;
    Py_ssize_t nslots, nroutes;
    int64_t nr, V, depth, nch, nsrc, nsets, fcap, ccap;
    word *router, *in, *out, *credits, *owner, *vcptr, *ej, *cell;
    word *flit, *ch, *chflit, *chcred, *active, *src, *sets;
} Net;

static int
fail(const char *message)
{
    PyErr_SetString(PyExc_RuntimeError, message);
    return -1;
}

/* Acquire an int32 buffer; the caller releases it before returning. */
static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, const char *what)
{
    int flags = PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *fmt = view->format;
    if (view->itemsize != sizeof(word) || fmt == NULL
            || strcmp(fmt, "i") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('i')", what);
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
    for (int h = H_ROUTER; h <= H_SETS; h++) {
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
    n->occ = NULL;
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

/* Append ``slot`` to the lazily created result list. */
static int
append_slot(PyObject **list, int64_t slot)
{
    if (*list == NULL && (*list = PyList_New(0)) == NULL)
        return -1;
    PyObject *item = PyLong_FromLongLong(slot);
    if (item == NULL)
        return -1;
    int rc = PyList_Append(*list, item);
    Py_DECREF(item);
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

/* Router.deliver_flit / deliver_channel_flit: buffer one flit. */
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

/* Router._switch with SeparableAllocator.allocate: switch requests,
 * input-first separable allocation with iSLIP pointer updates, then
 * traversal of every grant in the allocator's order. */
static int
switch_traverse(Net *n, word *R, int64_t now, PyObject **done,
                int64_t *moved)
{
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
        int64_t och = n->out[og * OUT_F + OUT_CH];
        if (och < 0) {
            /* MeshNetwork._eject: reassembly; a tail completes. */
            if (++sl[SL_GOT] == sl[SL_NFLITS]) {
                sl[SL_GOT] = 0;
                if (append_slot(done, f[FL_SLOT]) < 0)
                    return -1;
            }
        }
        else if (send_flit(n, och, f, ovc, now) < 0)
            return -1;
        int64_t ich = n->in[(in_base + pos) * IN_F + IN_CH];
        if (ich >= 0 && send_credit(n, ich, v, now) < 0)
            return -1;
        if (f[FL_INDEX] == sl[SL_NFLITS] - 1) {
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

static PyObject *
k_sweep(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "sweep(st, slots, routes, stats, now)");
        return NULL;
    }
    int64_t now;
    if (parse_now(args[4], &now) < 0)
        return NULL;
    Py_buffer st, slots, routes;
    if (get_buffer(args[0], &st, 1, "st") < 0)
        return NULL;
    if (get_buffer(args[1], &slots, 1, "slots") < 0) {
        PyBuffer_Release(&st);
        return NULL;
    }
    if (get_buffer(args[2], &routes, 0, "routes") < 0) {
        PyBuffer_Release(&slots);
        PyBuffer_Release(&st);
        return NULL;
    }
    PyObject *done = NULL;
    Net n;
    int64_t delivered = 0, moved = 0;
    int ok = load_net(&n, &st, &slots, &routes) == 0;
    if (ok) {
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
                && switch_traverse(&n, R, now, &done, &moved) == 0;
        }
        n.st[H_BUFFERED] -= moved;
    }
    PyBuffer_Release(&routes);
    PyBuffer_Release(&slots);
    PyBuffer_Release(&st);
    if (ok) {
        PyObject *stats = args[3];
        ok = add_stat(stats, s_hops, delivered) == 0
            && add_stat(stats, s_writes, delivered) == 0
            && add_stat(stats, s_xbar, moved) == 0
            && add_stat(stats, s_reads, moved) == 0;
    }
    if (!ok) {
        Py_XDECREF(done);
        return NULL;
    }
    if (done == NULL)
        Py_RETURN_NONE;
    return done;
}

/* Link the accepted packets ``pending`` -- (source port, slot, route,
 * flits) tuples in acceptance order -- onto their source FIFOs. */
static int
append_pending(Net *n, PyObject *pending)
{
    if (!PyList_Check(pending)) {
        PyErr_SetString(PyExc_TypeError, "pending must be a list");
        return -1;
    }
    Py_ssize_t count = PyList_GET_SIZE(pending);
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PyList_GET_ITEM(pending, i);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 4) {
            PyErr_SetString(PyExc_TypeError,
                            "pending entries are 4-tuples");
            return -1;
        }
        int64_t field[4];
        for (int k = 0; k < 4; k++) {
            field[k] = PyLong_AsLongLong(PyTuple_GET_ITEM(item, k));
            if (field[k] == -1 && PyErr_Occurred())
                return -1;
        }
        int64_t port = field[0], slot = field[1], rid = field[2];
        int64_t nflits = field[3];
        if (port < 0 || port >= n->nsrc || slot < 0 || slot >= n->nslots
                || nflits < 1 || rid < 0 || rid + RT_HOPS > n->nroutes
                || rid + RT_HOPS + 2 * n->routes[rid + RT_LEN] > n->nroutes
                || n->routes[rid + RT_INJSET] < 0
                || n->routes[rid + RT_INJSET] >= n->nsets) {
            PyErr_SetString(PyExc_ValueError, "pending entry out of range");
            return -1;
        }
        word *sl = n->slots + slot * SL_F;
        sl[SL_NFLITS] = nflits;
        sl[SL_ROUTE] = rid;
        sl[SL_HOP] = 0;
        sl[SL_GOT] = 0;
        sl[SL_NEXT] = -1;
        word *S = n->src + port * S_F;
        if (S[S_FTAIL] < 0)
            S[S_FHEAD] = slot;
        else
            n->slots[S[S_FTAIL] * SL_F + SL_NEXT] = slot;
        S[S_FTAIL] = slot;
        n->st[H_SRCFLITS] += nflits;
    }
    return 0;
}

/* MeshNetwork._drain_source with _pick_injection_vc, every source port in
 * node order.  Returns the flits written into routers, or -1. */
static int64_t
drain_sources(Net *n, int64_t now, PyObject **started)
{
    int64_t writes = 0, V = n->V;
    for (int64_t p = 0; p < n->nsrc; p++) {
        word *S = n->src + p * S_F;
        if (S[S_CUR] < 0) {
            int64_t slot = S[S_FHEAD];
            if (slot < 0)
                continue;
            word *sl = n->slots + slot * SL_F;
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
            S[S_FHEAD] = sl[SL_NEXT];
            if (S[S_FHEAD] < 0)
                S[S_FTAIL] = -1;
            sl[SL_NEXT] = -1;
            S[S_CUR] = slot;
            S[S_NEXT] = 0;
            S[S_VC] = best;
            if (append_slot(started, slot) < 0)
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
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError,
                        "drain(st, slots, routes, occ, pending, stats, now)");
        return NULL;
    }
    int64_t now;
    if (parse_now(args[6], &now) < 0)
        return NULL;
    Py_buffer st, slots, routes, occ;
    if (get_buffer(args[0], &st, 1, "st") < 0)
        return NULL;
    if (get_buffer(args[1], &slots, 1, "slots") < 0) {
        PyBuffer_Release(&st);
        return NULL;
    }
    if (get_buffer(args[2], &routes, 0, "routes") < 0) {
        PyBuffer_Release(&slots);
        PyBuffer_Release(&st);
        return NULL;
    }
    if (get_buffer(args[3], &occ, 1, "occ") < 0) {
        PyBuffer_Release(&routes);
        PyBuffer_Release(&slots);
        PyBuffer_Release(&st);
        return NULL;
    }
    PyObject *started = NULL;
    Net n;
    int64_t writes = 0;
    int ok = load_net(&n, &st, &slots, &routes) == 0;
    if (ok && occ.len / (Py_ssize_t)sizeof(word) < n.nr) {
        PyErr_SetString(PyExc_ValueError, "occ is shorter than the mesh");
        ok = 0;
    }
    if (ok) {
        n.occ = (word *)occ.buf;
        ok = append_pending(&n, args[4]) == 0;
    }
    if (ok) {
        writes = drain_sources(&n, now, &started);
        ok = writes >= 0;
    }
    PyBuffer_Release(&occ);
    PyBuffer_Release(&routes);
    PyBuffer_Release(&slots);
    PyBuffer_Release(&st);
    if (ok)
        ok = add_stat(args[5], s_writes, writes) == 0;
    if (!ok) {
        Py_XDECREF(started);
        return NULL;
    }
    if (started == NULL)
        Py_RETURN_NONE;
    return started;
}

static PyMethodDef kernel_methods[] = {
    {"sweep", (PyCFunction)(void (*)(void))k_sweep, METH_FASTCALL,
     "Deliver channels and step every occupied router for one cycle."},
    {"drain", (PyCFunction)(void (*)(void))k_drain, METH_FASTCALL,
     "Append accepted packets, then drain every source port once."},
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
    if (s_xbar == NULL) {
        s_xbar = PyUnicode_InternFromString("crossbar_traversals");
        s_reads = PyUnicode_InternFromString("buffer_reads");
        s_writes = PyUnicode_InternFromString("buffer_writes");
        s_hops = PyUnicode_InternFromString("link_flit_hops");
        if (!s_xbar || !s_reads || !s_writes || !s_hops)
            return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "LAYOUT", LAYOUT) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

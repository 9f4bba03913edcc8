"""C source of the compiled event sweep (see ``compiledpath.py``).

The kernel is a transcription of the scalar ``reference`` spec
(:meth:`repro.runtime.scheduler.Scheduler._run_reference`) over
flattened numeric buffers: the same absolute-exhaust-time store, the
same EPS adjustment, the same work-space interval corrections, the same
share refresh, the same policy/queue disciplines and the same pre-order
zero-cost ``cascade``.  It seats tasks from the precomputed plan bundle
(:mod:`repro.runtime.plans`), whose columns evaluate the expressions
the spec evaluates at dispatch.  Every floating-point expression is
written with the operand order of the spec, and the library is
compiled with ``-ffp-contract=off`` and no fast-math, so on IEEE-754
doubles it, the spec and the ``fast`` kernel emit the same
:class:`~repro.runtime.scheduler.Schedule` columns bit for bit: its
output arrays (records, interval rows, busy rows) are that format, and
the Python kernels pack their row lists into the same arrays.

The source lives in a Python string so the JIT cache can key the
compiled ``.so`` by ``sha256(source + ABI + compiler)`` — editing the
kernel automatically invalidates stale libraries.  Bump
:data:`ABI_VERSION` whenever the ``SweepArgs`` struct layout changes.
"""

from __future__ import annotations

__all__ = ["ABI_VERSION", "SWEEP_SOURCE"]

#: Version of the SweepArgs struct layout + error-code contract.
ABI_VERSION = 1

SWEEP_SOURCE = r"""
/* Compiled event sweep over flattened seat-plan / arena buffers.
 *
 * Transcribes Scheduler._run_reference bit for bit; all state lives in
 * one malloc'd scratch block carved below.  Errors are
 * reported through err_code/err_a/err_b (never longjmp, never stdout);
 * the Python wrapper rebuilds the fast engine's exact exception
 * messages from them.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EPS 1e-9

enum {
    OK = 0,
    ERR_ZERO_RATE = 1,   /* err_a = tid, err_b = dim */
    ERR_DEADLOCK = 2,    /* err_a = done_count */
    ERR_NO_PROGRESS = 3,
    ERR_ALLOC = 4,
    ERR_CAP = 5          /* internal output-capacity bound violated */
};

typedef struct {
    /* ---- graph + flattened seat plan (all borrowed, read-only) ---- */
    int64_t n;
    const int64_t *priv_ptr;   /* n+1: CSR over private-dim entries   */
    const int64_t *priv_dim;
    const double  *priv_rate;
    const double  *priv_dur;
    const double  *priv_adj;   /* dur - EPS/rate, precomputed         */
    const double  *priv_dem;
    const int64_t *shr_ptr;    /* n+1: CSR over shared-dim entries    */
    const int64_t *shr_dim;
    const double  *shr_work;
    const int64_t *alive0;     /* n: entry count / trivial / bad-dim  */
    const uint8_t *affinity;   /* n: tied AND has creator             */
    const uint8_t *zeros;      /* n: cost exactly zero                */
    const int64_t *created;    /* n: creator tid or -1                */
    const int64_t *indeg0;     /* n: initial indegrees                */
    const int64_t *succ_ptr;   /* n+1: successor CSR                  */
    const int64_t *succ_idx;
    const int64_t *seeds;      /* source tids in task order           */
    int64_t n_seeds;
    const double *prio;        /* n critical-policy priorities or NULL */
    /* ---- machine ---- */
    int64_t threads;
    const int64_t *socket_of;  /* threads */
    int64_t num_sockets;
    double l3_bw;
    double dram_bw;
    int64_t policy;            /* 0 fifo, 1 lifo, 2 critical, 3 steal */
    int64_t any_created;
    /* ---- outputs (caller-allocated) ---- */
    int64_t *rec_tid;
    int64_t *rec_core;
    double  *rec_start;
    double  *rec_end;
    int64_t rec_cap;
    double  *iv_rows;          /* iv_cap x 8, row-major               */
    int64_t iv_cap;
    int64_t *busy_core;
    double  *busy_start;
    double  *busy_end;
    int64_t busy_cap;
    /* ---- out scalars ---- */
    int64_t rec_count;
    int64_t iv_count;
    int64_t busy_count;
    double  makespan;
    int64_t migrations;
    int64_t steals;
    int64_t err_code;
    int64_t err_a;
    int64_t err_b;
} SweepArgs;

typedef struct {
    SweepArgs *a;
    int64_t n, P, NE, nsock;
    /* ready queues (policy-dependent storage) */
    int64_t *qbuf;             /* fifo ring head/tail, or lifo stack  */
    int64_t q_head, q_tail;    /* fifo */
    int64_t q_len;             /* lifo */
    double  *heap_key;         /* critical */
    int64_t *heap_tid;
    int64_t heap_len;
    int64_t *dq_next, *dq_prev;    /* steal: tid-indexed links        */
    int64_t *dq_head, *dq_tail, *dq_len;   /* per-core deques         */
    int64_t inbox_head, inbox_tail, inbox_len;
    int64_t ready_total;
    int64_t *task_core;        /* n: tid -> core it ran on, -1        */
    /* flat (core*5+dim) entry state */
    double *ta, *tt, *rof, *dem, *seat;
    int64_t *alive;            /* P */
    double  *start_of;         /* P */
    double  rs[5];
    int64_t du[5];
    int64_t *l3_users, *seated3;   /* nsock */
    int64_t seated4;
    double  *share3;
    double  share4;
    int64_t *un_core, *un_dim; /* unseated shared entries, cap 2P+2   */
    double  *un_work;
    int64_t un_n;
    int     shares_dirty;
    /* running dict as an insertion-ordered linked list over cores */
    int64_t *run_next, *run_prev, *run_tid;
    int64_t run_head, run_tail, run_count;
    int64_t *fc;               /* free cores, list semantics          */
    int64_t fc_len;
    int64_t *ptriv;            /* pending_trivial, cap P              */
    int64_t ptriv_n;
    uint8_t *pset;             /* P scratch flags                     */
    int64_t *fin;              /* P finished-cores scratch            */
    int64_t *last_busy;        /* P: index of core's last busy row    */
    int64_t *st_tid, *st_pos;  /* cascade DFS stack, cap n+1          */
    int64_t *indeg;            /* n, mutable copy                     */
    double  t;
    int64_t done, migrations, steals;
} St;

static size_t align16(size_t x) { return (x + 15) & ~(size_t)15; }

static int fail(St *s, int64_t code, int64_t ea, int64_t eb) {
    s->a->err_code = code;
    s->a->err_a = ea;
    s->a->err_b = eb;
    return (int)code;
}

/* ---- ready queues ----------------------------------------------------- */

static void heap_push(St *s, int64_t tid, double key) {
    int64_t i = s->heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (key < s->heap_key[p] ||
            (key == s->heap_key[p] && tid < s->heap_tid[p])) {
            s->heap_key[i] = s->heap_key[p];
            s->heap_tid[i] = s->heap_tid[p];
            i = p;
        } else {
            break;
        }
    }
    s->heap_key[i] = key;
    s->heap_tid[i] = tid;
}

static int64_t heap_pop(St *s) {
    /* Pops the unique (key, tid)-lexicographic minimum; with a strict
     * total order the pop sequence of any correct binary heap matches
     * CPython's heapq, so decisions agree with the Python kernels. */
    int64_t out = s->heap_tid[0];
    int64_t len = --s->heap_len;
    if (len > 0) {
        double key = s->heap_key[len];
        int64_t tid = s->heap_tid[len];
        int64_t i = 0;
        for (;;) {
            int64_t c = 2 * i + 1;
            if (c >= len) break;
            int64_t r = c + 1;
            if (r < len && (s->heap_key[r] < s->heap_key[c] ||
                            (s->heap_key[r] == s->heap_key[c] &&
                             s->heap_tid[r] < s->heap_tid[c])))
                c = r;
            if (s->heap_key[c] < key ||
                (s->heap_key[c] == key && s->heap_tid[c] < tid)) {
                s->heap_key[i] = s->heap_key[c];
                s->heap_tid[i] = s->heap_tid[c];
                i = c;
            } else {
                break;
            }
        }
        s->heap_key[i] = key;
        s->heap_tid[i] = tid;
    }
    return out;
}

static void push_ready(St *s, int64_t tid) {
    SweepArgs *a = s->a;
    switch ((int)a->policy) {
    case 0:
        s->qbuf[s->q_tail++] = tid;
        break;
    case 1:
        s->qbuf[s->q_len++] = tid;
        break;
    case 2:
        heap_push(s, tid, -a->prio[tid]);
        break;
    default: {
        int64_t creator = a->created[tid];
        int64_t home = creator >= 0 ? s->task_core[creator] : -1;
        if (home < 0) {                     /* shared inbox, append right */
            s->dq_prev[tid] = s->inbox_tail;
            s->dq_next[tid] = -1;
            if (s->inbox_tail >= 0) s->dq_next[s->inbox_tail] = tid;
            else s->inbox_head = tid;
            s->inbox_tail = tid;
            s->inbox_len++;
        } else {                            /* creator's deque, appendleft */
            s->dq_next[tid] = s->dq_head[home];
            s->dq_prev[tid] = -1;
            if (s->dq_head[home] >= 0) s->dq_prev[s->dq_head[home]] = tid;
            else s->dq_tail[home] = tid;
            s->dq_head[home] = tid;
            s->dq_len[home]++;
        }
        s->ready_total++;
    }
    }
}

static int64_t qlen(const St *s) {
    switch ((int)s->a->policy) {
    case 0: return s->q_tail - s->q_head;
    case 1: return s->q_len;
    case 2: return s->heap_len;
    default: return s->ready_total;
    }
}

static int64_t pop_for_core(St *s, int64_t core) {
    int64_t tid, nx, pv;
    s->ready_total--;
    if (s->dq_len[core] > 0) {              /* own deque, popleft */
        tid = s->dq_head[core];
        nx = s->dq_next[tid];
        s->dq_head[core] = nx;
        if (nx >= 0) s->dq_prev[nx] = -1; else s->dq_tail[core] = -1;
        s->dq_len[core]--;
        return tid;
    }
    if (s->inbox_len > 0) {                 /* inbox, popleft */
        tid = s->inbox_head;
        nx = s->dq_next[tid];
        s->inbox_head = nx;
        if (nx >= 0) s->dq_prev[nx] = -1; else s->inbox_tail = -1;
        s->inbox_len--;
        return tid;
    }
    /* steal the oldest task of the first most-loaded victim */
    {
        int64_t victim = 0, best = s->dq_len[0], v;
        for (v = 1; v < s->P; v++)
            if (s->dq_len[v] > best) { best = s->dq_len[v]; victim = v; }
        s->steals++;
        tid = s->dq_tail[victim];           /* pop right: oldest */
        pv = s->dq_prev[tid];
        s->dq_tail[victim] = pv;
        if (pv >= 0) s->dq_next[pv] = -1; else s->dq_head[victim] = -1;
        s->dq_len[victim]--;
        return tid;
    }
}

/* ---- records / cascade ------------------------------------------------ */

static int emit_rec(St *s, int64_t tid, int64_t core, double start, double end) {
    SweepArgs *a = s->a;
    if (a->rec_count >= a->rec_cap) return fail(s, ERR_CAP, 0, 0);
    a->rec_tid[a->rec_count] = tid;
    a->rec_core[a->rec_count] = core;
    a->rec_start[a->rec_count] = start;
    a->rec_end[a->rec_count] = end;
    a->rec_count++;
    return 0;
}

/* Propagate one completion; returns 1 + the zero-cost cascade size, or
 * -1 on error.  Iterative pre-order DFS, as in the spec: a zero-cost
 * successor is recorded, then fully expanded, before the parent's next
 * successor is considered. */
static int64_t cascade(St *s, int64_t root, double when) {
    SweepArgs *a = s->a;
    int64_t count = 1;
    int64_t sp = 0;
    s->st_tid[0] = root;
    s->st_pos[0] = a->succ_ptr[root];
    while (sp >= 0) {
        int64_t tid = s->st_tid[sp];
        int64_t pos = s->st_pos[sp];
        if (pos >= a->succ_ptr[tid + 1]) { sp--; continue; }
        s->st_pos[sp] = pos + 1;
        {
            int64_t succ = a->succ_idx[pos];
            if (--s->indeg[succ] == 0) {
                if (a->zeros[succ]) {
                    if (emit_rec(s, succ, -1, when, when)) return -1;
                    count++;
                    sp++;
                    s->st_tid[sp] = succ;
                    s->st_pos[sp] = a->succ_ptr[succ];
                } else {
                    push_ready(s, succ);
                }
            }
        }
    }
    return count;
}

/* ---- entry retirement / share refresh --------------------------------- */

static void exhaust_entry(St *s, int64_t core, int64_t dim) {
    int64_t e = core * 5 + dim;
    s->tt[e] = INFINITY;
    s->ta[e] = INFINITY;
    if (dim < 3) {
        s->rs[dim] -= s->rof[e];
        if (--s->du[dim] == 0) s->rs[dim] = 0.0;   /* kill float residue */
    } else if (dim == 3) {
        int64_t sock = s->a->socket_of[core];
        s->du[3]--;
        s->l3_users[sock]--;
        s->seated3[sock]--;
        s->shares_dirty = 1;
    } else {
        s->du[4]--;
        s->seated4--;
        s->shares_dirty = 1;
    }
    if (--s->alive[core] == 0) s->ptriv[s->ptriv_n++] = core;
}

static int reseat(St *s, int64_t core, int64_t dim, double rem, double rate,
                  double now) {
    if (rem <= EPS) {           /* sub-EPS residue: zero at next event */
        exhaust_entry(s, core, dim);
        return 0;
    }
    if (rate <= 0.0) return fail(s, ERR_ZERO_RATE, s->run_tid[core], dim);
    {
        int64_t e = core * 5 + dim;
        double texp = now + rem / rate;
        s->tt[e] = texp;
        s->rof[e] = rate;
        s->ta[e] = texp - EPS / rate;
        s->dem[e] = rem;
        s->seat[e] = now;
    }
    return 0;
}

/* The spec's refresh_shares; fastpath's fused single-socket variant
 * takes identical state transitions, so one shape serves every
 * machine. */
static int refresh_shares(St *s, double now) {
    SweepArgs *a = s->a;
    for (;;) {
        int64_t pd_n, k, sock, core;
        s->shares_dirty = 0;
        pd_n = s->un_n;
        s->un_n = 0;
        {
            int64_t dram_users = s->du[4];
            double new4 = dram_users ? a->dram_bw / (double)dram_users : 0.0;
            if (new4 != s->share4) {
                s->share4 = new4;
                if (s->seated4) {
                    for (core = s->run_head; core >= 0; core = s->run_next[core]) {
                        int64_t e = core * 5 + 4;
                        double told = s->tt[e];
                        if (told != INFINITY) {
                            if (reseat(s, core, 4, (told - now) * s->rof[e],
                                       new4, now))
                                return -1;
                        }
                    }
                }
            }
        }
        for (sock = 0; sock < s->nsock; sock++) {
            double new3 = s->l3_users[sock]
                              ? a->l3_bw / (double)s->l3_users[sock]
                              : 0.0;
            if (new3 != s->share3[sock]) {
                s->share3[sock] = new3;
                if (s->seated3[sock]) {
                    for (core = s->run_head; core >= 0; core = s->run_next[core]) {
                        int64_t e;
                        double told;
                        if (a->socket_of[core] != sock) continue;
                        e = core * 5 + 3;
                        told = s->tt[e];
                        if (told != INFINITY) {
                            if (reseat(s, core, 3, (told - now) * s->rof[e],
                                       new3, now))
                                return -1;
                        }
                    }
                }
            }
        }
        for (k = 0; k < pd_n; k++) {
            int64_t pcore = s->un_core[k];
            int64_t dim = s->un_dim[k];
            double work = s->un_work[k];
            double rate;
            if (dim == 4) {
                rate = s->share4;
                s->seated4++;
            } else {
                int64_t psock = a->socket_of[pcore];
                rate = s->share3[psock];
                s->seated3[psock]++;
            }
            if (rate <= 0.0)
                return fail(s, ERR_ZERO_RATE, s->run_tid[pcore], dim);
            {
                int64_t e = pcore * 5 + dim;
                double texp = now + work / rate;
                s->tt[e] = texp;
                s->rof[e] = rate;
                s->ta[e] = texp - EPS / rate;
                s->dem[e] = work;
                s->seat[e] = now;
            }
        }
        if (!s->shares_dirty) break;
    }
    s->rs[4] = (double)s->du[4] * s->share4;
    {
        double s3 = 0.0;
        int64_t sock;
        for (sock = 0; sock < s->nsock; sock++)
            s3 += (double)s->l3_users[sock] * s->share3[sock];
        s->rs[3] = s3;
    }
    return 0;
}

/* ---- entry point ------------------------------------------------------ */

int64_t repro_sweep(SweepArgs *a) {
    St s;
    char *mem = NULL;
    int pass;
    int64_t n = a->n, P = a->threads, NE = P * 5, nsock = a->num_sockets;
    int64_t un_cap = 2 * P + 2;
    int64_t k, e;

    memset(&s, 0, sizeof(s));
    s.a = a;
    s.n = n;
    s.P = P;
    s.NE = NE;
    s.nsock = nsock;
    a->rec_count = a->iv_count = a->busy_count = 0;
    a->makespan = 0.0;
    a->migrations = a->steals = 0;
    a->err_code = a->err_a = a->err_b = 0;

#define CARVE(var, type, count) \
    do { \
        if (pass) { var = (type *)(mem + off); } \
        off += align16(sizeof(type) * (size_t)(count)); \
    } while (0)

    for (pass = 0; pass < 2; pass++) {
        size_t off = 0;
        CARVE(s.ta, double, NE);
        CARVE(s.tt, double, NE);
        CARVE(s.rof, double, NE);
        CARVE(s.dem, double, NE);
        CARVE(s.seat, double, NE);
        CARVE(s.start_of, double, P);
        CARVE(s.share3, double, nsock);
        CARVE(s.un_work, double, un_cap);
        CARVE(s.task_core, int64_t, n ? n : 1);
        CARVE(s.indeg, int64_t, n ? n : 1);
        CARVE(s.st_tid, int64_t, n + 1);
        CARVE(s.st_pos, int64_t, n + 1);
        CARVE(s.un_core, int64_t, un_cap);
        CARVE(s.un_dim, int64_t, un_cap);
        CARVE(s.alive, int64_t, P);
        CARVE(s.l3_users, int64_t, nsock);
        CARVE(s.seated3, int64_t, nsock);
        CARVE(s.run_next, int64_t, P);
        CARVE(s.run_prev, int64_t, P);
        CARVE(s.run_tid, int64_t, P);
        CARVE(s.fc, int64_t, P);
        CARVE(s.ptriv, int64_t, P);
        CARVE(s.fin, int64_t, P);
        CARVE(s.last_busy, int64_t, P);
        if (a->policy == 0 || a->policy == 1) {
            CARVE(s.qbuf, int64_t, n ? n : 1);
        } else if (a->policy == 2) {
            CARVE(s.heap_key, double, n ? n : 1);
            CARVE(s.heap_tid, int64_t, n ? n : 1);
        } else {
            CARVE(s.dq_next, int64_t, n ? n : 1);
            CARVE(s.dq_prev, int64_t, n ? n : 1);
            CARVE(s.dq_head, int64_t, P);
            CARVE(s.dq_tail, int64_t, P);
            CARVE(s.dq_len, int64_t, P);
        }
        CARVE(s.pset, uint8_t, P);
        if (!pass) {
            mem = (char *)malloc(off ? off : 1);
            if (!mem) return fail(&s, ERR_ALLOC, 0, 0);
        }
    }
#undef CARVE

    for (e = 0; e < NE; e++) {
        s.ta[e] = INFINITY;
        s.tt[e] = INFINITY;
        s.rof[e] = 0.0;
        s.dem[e] = 0.0;
        s.seat[e] = 0.0;
    }
    for (k = 0; k < P; k++) {
        s.start_of[k] = 0.0;
        s.alive[k] = 0;
        s.run_next[k] = s.run_prev[k] = -1;
        s.run_tid[k] = -1;
        s.fc[k] = P - 1 - k;            /* list(range(threads-1, -1, -1)) */
        s.last_busy[k] = -1;
        s.pset[k] = 0;
    }
    for (k = 0; k < nsock; k++) {
        s.share3[k] = 0.0;
        s.l3_users[k] = 0;
        s.seated3[k] = 0;
    }
    for (k = 0; k < n; k++) s.task_core[k] = -1;
    if (n) memcpy(s.indeg, a->indeg0, (size_t)n * sizeof(int64_t));
    if (a->policy == 3) {
        for (k = 0; k < P; k++) {
            s.dq_head[k] = s.dq_tail[k] = -1;
            s.dq_len[k] = 0;
        }
    }
    s.run_head = s.run_tail = -1;
    s.inbox_head = s.inbox_tail = -1;
    s.fc_len = P;
    s.t = 0.0;

    /* ---- seed the sources in tid order, as the spec does ---- */
    for (k = 0; k < a->n_seeds; k++) {
        int64_t tid = a->seeds[k];
        if (a->zeros[tid]) {
            int64_t c;
            if (emit_rec(&s, tid, -1, 0.0, 0.0)) goto out;
            c = cascade(&s, tid, 0.0);
            if (c < 0) goto out;
            s.done += c;
        } else {
            push_ready(&s, tid);
        }
    }

    while (s.done < n) {
        /* ---- dispatch ready tasks onto free cores ---- */
        {
            int64_t nfree = s.fc_len;
            int64_t nready = qlen(&s);
            int64_t batch = nfree < nready ? nfree : nready;
            int track_affinity = (a->policy == 3) || a->any_created;
            while (batch--) {
                int64_t core = s.fc[s.fc_len - 1];
                int64_t tid;
                if (a->policy == 3) tid = pop_for_core(&s, core);
                else if (a->policy == 0) tid = s.qbuf[s.q_head++];
                else if (a->policy == 1) tid = s.qbuf[--s.q_len];
                else tid = heap_pop(&s);
                if (track_affinity) {
                    int64_t creator = a->created[tid];
                    if (a->policy != 3 && a->affinity[tid]) {
                        int64_t want = s.task_core[creator];
                        if (want >= 0) {
                            int found = 0;
                            int64_t j;
                            for (j = 0; j < s.fc_len; j++)
                                if (s.fc[j] == want) { found = 1; break; }
                            if (found) core = want;
                            else s.steals++;
                        }
                    }
                    if (core == s.fc[s.fc_len - 1]) {
                        s.fc_len--;
                    } else {
                        int64_t j = 0;
                        while (s.fc[j] != core) j++;
                        memmove(&s.fc[j], &s.fc[j + 1],
                                (size_t)(s.fc_len - j - 1) * sizeof(int64_t));
                        s.fc_len--;
                    }
                    if (creator >= 0 && s.task_core[creator] >= 0 &&
                        s.task_core[creator] != core)
                        s.migrations++;
                    s.task_core[tid] = core;
                } else {
                    s.fc_len--;
                }
                /* running[core] = tid (insertion-ordered) */
                s.run_tid[core] = tid;
                s.run_prev[core] = s.run_tail;
                s.run_next[core] = -1;
                if (s.run_tail >= 0) s.run_next[s.run_tail] = core;
                else s.run_head = core;
                s.run_tail = core;
                s.run_count++;
                s.start_of[core] = s.t;
                /* seat private entries from the precomputed plan */
                {
                    int64_t p0 = a->priv_ptr[tid], p1 = a->priv_ptr[tid + 1];
                    int64_t base = core * 5, p;
                    for (p = p0; p < p1; p++) {
                        int64_t dim = a->priv_dim[p];
                        double rate = a->priv_rate[p];
                        int64_t ent = base + dim;
                        s.rof[ent] = rate;
                        s.tt[ent] = s.t + a->priv_dur[p];
                        s.ta[ent] = s.t + a->priv_adj[p];
                        s.dem[ent] = a->priv_dem[p];
                        s.seat[ent] = s.t;
                        s.rs[dim] += rate;
                        s.du[dim]++;
                    }
                }
                /* shared entries queue on `unseated` until post-batch */
                {
                    int64_t h0 = a->shr_ptr[tid], h1 = a->shr_ptr[tid + 1];
                    int64_t h;
                    if (h1 > h0) {
                        for (h = h0; h < h1; h++) {
                            int64_t dim = a->shr_dim[h];
                            s.un_core[s.un_n] = core;
                            s.un_dim[s.un_n] = dim;
                            s.un_work[s.un_n] = a->shr_work[h];
                            s.un_n++;
                            s.du[dim]++;
                            if (dim == 3) s.l3_users[a->socket_of[core]]++;
                        }
                        s.shares_dirty = 1;
                    }
                }
                {
                    int64_t al = a->alive0[tid];
                    s.alive[core] = al;
                    if (al <= 0) {
                        if (al < 0) {
                            fail(&s, ERR_ZERO_RATE, tid, -1 - al);
                            goto out;
                        }
                        s.ptriv[s.ptriv_n++] = core;
                    }
                }
            }
        }

        if (s.run_count == 0) {
            fail(&s, ERR_DEADLOCK, s.done, 0);
            goto out;
        }

        if (s.shares_dirty) {
            if (refresh_shares(&s, s.t)) goto out;
        }

        /* ---- next event: smallest absolute TRUE exhaust time ---- */
        {
            double t_next = INFINITY;
            for (e = 0; e < NE; e++)
                if (s.tt[e] < t_next) t_next = s.tt[e];

            if (t_next == INFINITY) {
                if (s.ptriv_n == 0) {
                    fail(&s, ERR_NO_PROGRESS, 0, 0);
                    goto out;
                }
            } else {
                double dt = t_next - s.t;
                double t_prev = s.t;
                int64_t nrun = 0;
                double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0, c4 = 0.0;
                double corr0 = 0.0, corr1 = 0.0, corr2 = 0.0, corr3 = 0.0,
                       corr4 = 0.0;
                int64_t retired = 0;
                if (dt > 0.0) {
                    nrun = s.run_count;
                    c0 = s.rs[0] * dt;
                    c1 = s.rs[1] * dt;
                    c2 = s.rs[2] * dt;
                    c3 = s.rs[3] * dt;
                    c4 = s.rs[4] * dt;
                }
                s.t = t_next;
                for (e = 0; e < NE; e++) {
                    if (s.ta[e] <= t_next) {
                        int64_t core = e / 5, dim = e % 5;
                        if (s.tt[e] == t_next) {
                            double c = s.dem[e] -
                                       s.rof[e] * (t_next - s.seat[e]);
                            switch ((int)dim) {
                            case 0: corr0 += c; break;
                            case 1: corr1 += c; break;
                            case 2: corr2 += c; break;
                            case 3: corr3 += c; break;
                            default: corr4 += c; break;
                            }
                        }
                        exhaust_entry(&s, core, dim);
                        retired++;
                    }
                }
                if (!retired && s.ptriv_n == 0) {
                    fail(&s, ERR_NO_PROGRESS, 0, 0);
                    goto out;
                }
                if (dt > 0.0) {
                    double *row;
                    if (a->iv_count >= a->iv_cap) {
                        fail(&s, ERR_CAP, 1, 0);
                        goto out;
                    }
                    row = a->iv_rows + a->iv_count * 8;
                    row[0] = t_prev;
                    row[1] = t_next;
                    row[2] = (double)nrun;
                    row[3] = c0 + corr0;
                    row[4] = c1 + corr1;
                    row[5] = c2 + corr2;
                    row[6] = c3 + corr3;
                    row[7] = c4 + corr4;
                    a->iv_count++;
                }
            }
        }

        /* ---- flush finished tasks in running (insertion) order ---- */
        if (s.ptriv_n) {
            int64_t fin_n = 0, core, i;
            if (s.ptriv_n == s.run_count) {
                for (core = s.run_head; core >= 0; core = s.run_next[core])
                    s.fin[fin_n++] = core;
            } else {
                for (i = 0; i < s.ptriv_n; i++) s.pset[s.ptriv[i]] = 1;
                for (core = s.run_head; core >= 0; core = s.run_next[core])
                    if (s.pset[core]) s.fin[fin_n++] = core;
                for (i = 0; i < s.ptriv_n; i++) s.pset[s.ptriv[i]] = 0;
            }
            s.ptriv_n = 0;
            for (i = 0; i < fin_n; i++) {
                int64_t fcore = s.fin[i];
                int64_t tid_done = s.run_tid[fcore];
                double start = s.start_of[fcore];
                int64_t pv = s.run_prev[fcore], nx = s.run_next[fcore];
                int64_t c;
                if (pv >= 0) s.run_next[pv] = nx; else s.run_head = nx;
                if (nx >= 0) s.run_prev[nx] = pv; else s.run_tail = pv;
                s.run_count--;
                if (emit_rec(&s, tid_done, fcore, start, s.t)) goto out;
                if (s.t > start) {
                    int64_t lb = s.last_busy[fcore];
                    if (lb >= 0 && start - a->busy_end[lb] <= 1e-12) {
                        a->busy_end[lb] = s.t;
                    } else {
                        if (a->busy_count >= a->busy_cap) {
                            fail(&s, ERR_CAP, 2, 0);
                            goto out;
                        }
                        a->busy_core[a->busy_count] = fcore;
                        a->busy_start[a->busy_count] = start;
                        a->busy_end[a->busy_count] = s.t;
                        s.last_busy[fcore] = a->busy_count;
                        a->busy_count++;
                    }
                }
                s.fc[s.fc_len++] = fcore;
                c = cascade(&s, tid_done, s.t);
                if (c < 0) goto out;
                s.done += c;
            }
        }
    }

out:
    a->makespan = s.t;
    a->migrations = s.migrations;
    a->steals = s.steals;
    free(mem);
    return a->err_code;
}
"""

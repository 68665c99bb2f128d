/* Compiled hot path for the simulator: Engine("native").
 *
 * Two CPython types live here, both duck-compatible with their pure
 * Python counterparts:
 *
 * - NativeEngine mirrors repro.sim.engine.Engine: a single binary heap
 *   of (time, seq, callback, args) events kept as a C struct array (no
 *   per-event tuple allocation, no rich-comparison calls in the heap),
 *   with callbacks dispatched through the vectorcall protocol.  Events
 *   fire in exact (time, seq) order, so results are bit-identical to
 *   the wheel/heap schedulers — the determinism contract the golden
 *   corpora pin.
 *
 * - NativeQueue mirrors repro.net.buffers.InputQueue: packets stay in
 *   a real Python list bound to the ``_items`` attribute (the router's
 *   arbitration loop reads it directly), while entry timestamps live
 *   in a parallel C array and push/pop/head-key maintenance run in C.
 *
 * Built in-tree by ``python -m repro.sim.native_build`` (gcc + the
 * CPython headers, no third-party dependencies); loaded lazily by
 * repro.sim.native so the pure-Python install never imports it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

/* Looked up once at module init. */
static PyObject *SimulationError;  /* repro.errors.SimulationError */
static PyObject *segment_code_fn;  /* repro.obs.attribution.segment_code */

/* Interned attribute/method names used on the hot path. */
static PyObject *str_qualname, *str_engine_event, *str_queue_depth;
static PyObject *str_route, *str_hop_index, *str_transaction, *str_segments;
static PyObject *str_is_xfer, *str_is_req, *str_append;
static PyObject *str_now, *str_dead, *str_channel, *str_busy_until;
static PyObject *str_credits, *str_is_resp, *str_request_wakeup, *str_pick;
static PyObject *str_grants, *str_can_accept, *str_send, *str_dispatch;
static PyObject *str_upstream_link, *str_on_drain, *str_return_credit;
static PyObject *str_router_grant, *str_wake_when_idle, *str_ports;
static PyObject *str_inputs, *str_response_priority, *str_name;
static PyObject *str_head_key, *str_items, *str_pop, *str_tracer;
static PyObject *long_neg_one;  /* the LOCAL output key */
static PyObject *long_one;

/* ================================================================== */
/* NativeEngine                                                        */
/* ================================================================== */

typedef struct {
    long long time;
    unsigned long long seq;
    PyObject *cb;
    PyObject *args;  /* always a tuple */
} event_t;

typedef struct {
    PyObject_HEAD
    event_t *heap;
    Py_ssize_t size;
    Py_ssize_t cap;
    long long now;
    unsigned long long seq;
    Py_ssize_t pending;          /* same batch-settled semantics as Engine */
    Py_ssize_t events_processed;
    int running;
    int stop;                    /* request_stop() latch */
    PyObject *tracer;
} NativeEngine;

static int
heap_reserve(NativeEngine *self, Py_ssize_t need)
{
    if (need <= self->cap)
        return 0;
    Py_ssize_t cap = self->cap ? self->cap * 2 : 256;
    if (cap < need)
        cap = need;
    event_t *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(event_t));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->cap = cap;
    return 0;
}

/* key(a) < key(b) on (time, seq) */
#define EV_LT(a, b) \
    ((a).time < (b).time || ((a).time == (b).time && (a).seq < (b).seq))

static void
heap_sift_up(event_t *heap, Py_ssize_t pos)
{
    event_t item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!EV_LT(item, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
heap_sift_down(event_t *heap, Py_ssize_t size, Py_ssize_t pos)
{
    event_t item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && EV_LT(heap[child + 1], heap[child]))
            child += 1;
        if (!EV_LT(heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Push an event; takes new references to cb and args. */
static int
engine_push(NativeEngine *self, long long time, PyObject *cb, PyObject *args)
{
    if (heap_reserve(self, self->size + 1) < 0)
        return -1;
    event_t *slot = &self->heap[self->size];
    slot->time = time;
    slot->seq = self->seq++;
    Py_INCREF(cb);
    slot->cb = cb;
    Py_INCREF(args);
    slot->args = args;
    heap_sift_up(self->heap, self->size);
    self->size += 1;
    self->pending += 1;
    return 0;
}

static PyObject *
Engine_schedule(NativeEngine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0)
        return PyErr_Format(SimulationError,
                            "negative delay %lld scheduled at t=%lld",
                            delay, self->now);
    PyObject *extra = PyTuple_New(nargs - 2);
    if (extra == NULL)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(extra, i - 2, args[i]);
    }
    int rc = engine_push(self, self->now + delay, args[1], extra);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_schedule_at(NativeEngine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[0]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < self->now)
        return PyErr_Format(SimulationError,
                            "event scheduled in the past: t=%lld < now=%lld",
                            time, self->now);
    PyObject *extra = PyTuple_New(nargs - 2);
    if (extra == NULL)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(extra, i - 2, args[i]);
    }
    int rc = engine_push(self, time, args[1], extra);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_schedule_bound(NativeEngine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_bound(delay, callback, args=()) takes 2 or 3 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (nargs == 3) {
        if (!PyTuple_Check(args[2])) {
            PyErr_SetString(PyExc_TypeError, "schedule_bound args must be a tuple");
            return NULL;
        }
        if (engine_push(self, self->now + delay, args[1], args[2]) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *extra = PyTuple_New(0);
    if (extra == NULL)
        return NULL;
    int rc = engine_push(self, self->now + delay, args[1], extra);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_run(NativeEngine *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    int bounded = until_obj != Py_None;
    long long until = 0;
    if (bounded) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    int limited = max_obj != Py_None;
    long long max_events = 0;
    if (limited) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *tracer =
        (self->tracer != NULL && self->tracer != Py_None) ? self->tracer : NULL;

    Py_ssize_t processed = 0;
    int error = 0;
    self->running = 1;
    while (self->size) {
        if (bounded && self->heap[0].time > until) {
            self->now = until;
            goto done;
        }
        /* pop the minimum (time, seq) event */
        event_t ev = self->heap[0];
        self->size -= 1;
        if (self->size) {
            self->heap[0] = self->heap[self->size];
            heap_sift_down(self->heap, self->size, 0);
        }
        self->now = ev.time;
        if (tracer != NULL) {
            PyObject *label = PyObject_GetAttr(ev.cb, str_qualname);
            if (label == NULL) {
                PyErr_Clear();
                label = PyObject_Repr(ev.cb);
            }
            PyObject *time_obj =
                (label != NULL) ? PyLong_FromLongLong(ev.time) : NULL;
            PyObject *res = NULL;
            if (time_obj != NULL) {
                res = PyObject_CallMethodObjArgs(tracer, str_engine_event,
                                                 time_obj, label, NULL);
            }
            Py_XDECREF(time_obj);
            Py_XDECREF(label);
            if (res == NULL) {
                Py_DECREF(ev.cb);
                Py_DECREF(ev.args);
                error = 1;
                goto done;
            }
            Py_DECREF(res);
        }
        /* dispatch callback(self, *args) through vectorcall */
        Py_ssize_t n = PyTuple_GET_SIZE(ev.args);
        PyObject *small[8];
        PyObject **stack = small;
        if (n + 1 > 8) {
            stack = PyMem_Malloc((size_t)(n + 1) * sizeof(PyObject *));
            if (stack == NULL) {
                Py_DECREF(ev.cb);
                Py_DECREF(ev.args);
                PyErr_NoMemory();
                error = 1;
                goto done;
            }
        }
        stack[0] = (PyObject *)self;
        for (Py_ssize_t i = 0; i < n; i++)
            stack[i + 1] = PyTuple_GET_ITEM(ev.args, i);
        PyObject *res = PyObject_Vectorcall(ev.cb, stack, n + 1, NULL);
        if (stack != small)
            PyMem_Free(stack);
        Py_DECREF(ev.cb);
        Py_DECREF(ev.args);
        if (res == NULL) {
            error = 1;
            goto done;
        }
        Py_DECREF(res);
        processed += 1;
        if (limited && processed >= max_events) {
            /* settle counters before raising, exactly like Engine */
            self->pending -= processed;
            self->events_processed += processed;
            self->running = 0;
            return PyErr_Format(SimulationError,
                                "event limit %lld exceeded at t=%lld; "
                                "likely livelock",
                                max_events, self->now);
        }
        if (self->stop) {
            self->stop = 0;
            goto done;
        }
    }
    if (bounded && until > self->now)
        self->now = until;
done:
    self->pending -= processed;
    self->events_processed += processed;
    self->running = 0;
    if (error)
        return NULL;
    return PyLong_FromSsize_t(processed);
}

static PyObject *
Engine_request_stop(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    self->stop = 1;
    Py_RETURN_NONE;
}

static PyObject *
Engine_set_tracer(NativeEngine *self, PyObject *tracer)
{
    Py_INCREF(tracer);
    Py_XSETREF(self->tracer, tracer);
    Py_RETURN_NONE;
}

static PyObject *
Engine_drain(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_CLEAR(self->heap[i].cb);
        Py_CLEAR(self->heap[i].args);
    }
    self->size = 0;
    self->pending = 0;
    Py_RETURN_NONE;
}

static PyObject *
Engine_peek_time(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].time);
}

static int
problems_append(PyObject *problems, const char *fmt, ...)
{
    va_list vargs;
    va_start(vargs, fmt);
    PyObject *msg = PyUnicode_FromFormatV(fmt, vargs);
    va_end(vargs);
    if (msg == NULL)
        return -1;
    int rc = PyList_Append(problems, msg);
    Py_DECREF(msg);
    return rc;
}

static PyObject *
Engine_integrity_errors(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *problems = PyList_New(0);
    if (problems == NULL)
        return NULL;
    Py_ssize_t queued = self->size;
    if (self->running) {
        /* mid-dispatch the pending counter still includes events this
         * run() call already processed; only the lower bound holds */
        if (queued > self->pending) {
            if (problems_append(problems,
                                "pending counter %zd below %zd queued events "
                                "mid-dispatch", self->pending, queued) < 0)
                goto fail;
        }
    }
    else if (queued != self->pending) {
        if (problems_append(problems,
                            "pending counter %zd != %zd queued events",
                            self->pending, queued) < 0)
            goto fail;
    }
    for (Py_ssize_t i = 0; i < self->size; i++) {
        if (self->heap[i].time < self->now) {
            if (problems_append(problems,
                                "heap event at t=%lld is before now=%lld",
                                self->heap[i].time, self->now) < 0)
                goto fail;
            break;
        }
    }
    for (Py_ssize_t i = 1; i < self->size; i++) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (EV_LT(self->heap[i], self->heap[parent])) {
            if (problems_append(problems,
                                "heap invariant violated at index %zd", i) < 0)
                goto fail;
            break;
        }
    }
    return problems;
fail:
    Py_DECREF(problems);
    return NULL;
}

static PyObject *
Engine_get_now(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Engine_get_pending(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->pending);
}

static PyObject *
Engine_get_processed(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->events_processed);
}

static PyObject *
Engine_get_collapsed(NativeEngine *self, void *Py_UNUSED(closure))
{
    Py_RETURN_FALSE;
}

static PyObject *
Engine_get_scheduler(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyUnicode_FromString("native");
}

static int
Engine_init(NativeEngine *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"scheduler", NULL};
    PyObject *scheduler = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O", kwlist, &scheduler))
        return -1;
    if (scheduler != Py_None) {
        int match = PyUnicode_Check(scheduler) &&
                    PyUnicode_CompareWithASCIIString(scheduler, "native") == 0;
        if (!match) {
            PyErr_Format(PyExc_ValueError,
                         "NativeEngine only supports 'native', got %R", scheduler);
            return -1;
        }
    }
    return 0;
}

static int
Engine_traverse(NativeEngine *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].args);
    }
    Py_VISIT(self->tracer);
    return 0;
}

static int
Engine_clear(NativeEngine *self)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_CLEAR(self->heap[i].cb);
        Py_CLEAR(self->heap[i].args);
    }
    self->size = 0;
    Py_CLEAR(self->tracer);
    return 0;
}

static void
Engine_dealloc(NativeEngine *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule, METH_FASTCALL,
     "Schedule callback(engine, *args) after delay ps."},
    {"schedule_at", (PyCFunction)(void (*)(void))Engine_schedule_at, METH_FASTCALL,
     "Schedule callback(engine, *args) at absolute time ps."},
    {"schedule_bound", (PyCFunction)(void (*)(void))Engine_schedule_bound,
     METH_FASTCALL,
     "Fast-path schedule for pre-validated callers (args as a tuple)."},
    {"run", (PyCFunction)(void (*)(void))Engine_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run until the queue drains, `until` is reached, or a limit hits."},
    {"request_stop", (PyCFunction)Engine_request_stop, METH_NOARGS,
     "Stop the current run after the event now dispatching completes."},
    {"set_tracer", (PyCFunction)Engine_set_tracer, METH_O,
     "Record every event dispatch into the tracer (repro.obs)."},
    {"drain", (PyCFunction)Engine_drain, METH_NOARGS,
     "Discard all pending events."},
    {"integrity_errors", (PyCFunction)Engine_integrity_errors, METH_NOARGS,
     "Audit the scheduler's internal bookkeeping (repro.check)."},
    {"_peek_time", (PyCFunction)Engine_peek_time, METH_NOARGS,
     "Earliest pending event time, or None."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL, "Current simulation time (ps).", NULL},
    {"pending", (getter)Engine_get_pending, NULL,
     "Number of events still in the queue.", NULL},
    {"events_processed", (getter)Engine_get_processed, NULL, NULL, NULL},
    {"collapsed", (getter)Engine_get_collapsed, NULL,
     "Wheel-collapse flag; always False for the native heap.", NULL},
    {"scheduler", (getter)Engine_get_scheduler, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject NativeEngine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._native.NativeEngine",
    .tp_basicsize = sizeof(NativeEngine),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled deterministic discrete-event scheduler.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
};

/* ================================================================== */
/* NativeQueue                                                         */
/* ================================================================== */

typedef struct {
    PyObject_HEAD
    PyObject *name;           /* str */
    PyObject *capacity;       /* int or None, as passed */
    Py_ssize_t cap;           /* -1 = unbounded */
    PyObject *items;          /* list of packets, head at index 0 */
    long long *entry;         /* entry times parallel to items; -1 = None */
    Py_ssize_t entry_cap;
    PyObject *head_key;       /* int or None */
    PyObject *upstream_link;
    PyObject *on_drain;
    PyObject *tracer;
    PyObject *seg_req;        /* interned attribution codes (PyLong) */
    PyObject *seg_resp;
    PyObject *seg_xfer;
    Py_ssize_t peak_occupancy;
    long long total_wait_ps;
    Py_ssize_t pushed;
    Py_ssize_t pops;
    Py_ssize_t popped;
    Py_ssize_t removed_count;
} NativeQueue;

/* The output key of a packet: route[hop_index + 1], or -1 (LOCAL) when
 * the packet is at its final hop.  Returns a new reference. */
static PyObject *
packet_output_key(PyObject *packet)
{
    PyObject *route = PyObject_GetAttr(packet, str_route);
    if (route == NULL)
        return NULL;
    PyObject *hop_obj = PyObject_GetAttr(packet, str_hop_index);
    if (hop_obj == NULL) {
        Py_DECREF(route);
        return NULL;
    }
    long long hop = PyLong_AsLongLong(hop_obj);
    Py_DECREF(hop_obj);
    if (hop == -1 && PyErr_Occurred()) {
        Py_DECREF(route);
        return NULL;
    }
    hop += 1;
    PyObject *key;
    if (PyList_Check(route)) {
        if (hop < PyList_GET_SIZE(route)) {
            key = PyList_GET_ITEM(route, hop);
            Py_INCREF(key);
        }
        else {
            key = long_neg_one;
            Py_INCREF(key);
        }
    }
    else {
        Py_ssize_t n = PySequence_Size(route);
        if (n < 0) {
            Py_DECREF(route);
            return NULL;
        }
        if (hop < n)
            key = PySequence_GetItem(route, hop);
        else {
            key = long_neg_one;
            Py_INCREF(key);
        }
    }
    Py_DECREF(route);
    return key;
}

static int
queue_refresh_head_key(NativeQueue *self)
{
    if (PyList_GET_SIZE(self->items)) {
        PyObject *key = packet_output_key(PyList_GET_ITEM(self->items, 0));
        if (key == NULL)
            return -1;
        Py_XSETREF(self->head_key, key);
    }
    else {
        Py_INCREF(Py_None);
        Py_XSETREF(self->head_key, Py_None);
    }
    return 0;
}

static int
entry_reserve(NativeQueue *self, Py_ssize_t need)
{
    if (need <= self->entry_cap)
        return 0;
    Py_ssize_t cap = self->entry_cap ? self->entry_cap * 2 : 16;
    if (cap < need)
        cap = need;
    long long *entry = PyMem_Realloc(self->entry, (size_t)cap * sizeof(long long));
    if (entry == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->entry = entry;
    self->entry_cap = cap;
    return 0;
}

static int
queue_emit_depth(NativeQueue *self, PyObject *now_obj, Py_ssize_t depth)
{
    if (self->tracer == NULL || self->tracer == Py_None)
        return 0;
    PyObject *depth_obj = PyLong_FromSsize_t(depth);
    if (depth_obj == NULL)
        return -1;
    PyObject *res = PyObject_CallMethodObjArgs(
        self->tracer, str_queue_depth, self->name, now_obj, depth_obj, NULL);
    Py_DECREF(depth_obj);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
Queue_push(NativeQueue *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "push(packet, now_ps=None)");
        return NULL;
    }
    PyObject *packet = args[0];
    PyObject *now_obj = (nargs == 2) ? args[1] : Py_None;
    Py_ssize_t depth = PyList_GET_SIZE(self->items);
    if (self->cap >= 0 && depth >= self->cap) {
        return PyErr_Format(SimulationError,
                            "queue %U overflow (capacity %zd); "
                            "credit accounting is broken",
                            self->name, self->cap);
    }
    long long now = -1;
    if (now_obj != Py_None) {
        now = PyLong_AsLongLong(now_obj);
        if (now == -1 && PyErr_Occurred())
            return NULL;
    }
    if (entry_reserve(self, depth + 1) < 0)
        return NULL;
    if (PyList_Append(self->items, packet) < 0)
        return NULL;
    self->entry[depth] = now;
    self->pushed += 1;
    depth += 1;
    if (depth == 1) {
        PyObject *key = packet_output_key(packet);
        if (key == NULL)
            return NULL;
        Py_XSETREF(self->head_key, key);
    }
    if (depth > self->peak_occupancy)
        self->peak_occupancy = depth;
    if (queue_emit_depth(self, now_obj, depth) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Queue_pop(NativeQueue *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "pop(now_ps=None)");
        return NULL;
    }
    PyObject *now_obj = (nargs == 1) ? args[0] : Py_None;
    Py_ssize_t len = PyList_GET_SIZE(self->items);
    if (len == 0)
        return PyErr_Format(SimulationError, "pop on empty queue %U", self->name);
    long long entered = self->entry[0];
    memmove(self->entry, self->entry + 1, (size_t)(len - 1) * sizeof(long long));
    PyObject *packet = PyList_GET_ITEM(self->items, 0);
    Py_INCREF(packet);
    if (PyList_SetSlice(self->items, 0, 1, NULL) < 0) {
        Py_DECREF(packet);
        return NULL;
    }
    len -= 1;
    if (len) {
        PyObject *key = packet_output_key(PyList_GET_ITEM(self->items, 0));
        if (key == NULL)
            goto fail;
        Py_XSETREF(self->head_key, key);
    }
    else {
        Py_INCREF(Py_None);
        Py_XSETREF(self->head_key, Py_None);
    }
    self->pops += 1;
    if (entered >= 0 && now_obj != Py_None) {
        long long now = PyLong_AsLongLong(now_obj);
        if (now == -1 && PyErr_Occurred())
            goto fail;
        self->total_wait_ps += now - entered;
        self->popped += 1;
        PyObject *txn = PyObject_GetAttr(packet, str_transaction);
        if (txn == NULL)
            goto fail;
        if (txn != Py_None && now > entered) {
            PyObject *segments = PyObject_GetAttr(txn, str_segments);
            if (segments == NULL) {
                Py_DECREF(txn);
                goto fail;
            }
            if (segments != Py_None) {
                PyObject *flag = PyObject_GetAttr(packet, str_is_xfer);
                if (flag == NULL)
                    goto seg_fail;
                int is_xfer = PyObject_IsTrue(flag);
                Py_DECREF(flag);
                if (is_xfer < 0)
                    goto seg_fail;
                PyObject *code;
                if (is_xfer)
                    code = self->seg_xfer;
                else {
                    flag = PyObject_GetAttr(packet, str_is_req);
                    if (flag == NULL)
                        goto seg_fail;
                    int is_req = PyObject_IsTrue(flag);
                    Py_DECREF(flag);
                    if (is_req < 0)
                        goto seg_fail;
                    code = is_req ? self->seg_req : self->seg_resp;
                }
                PyObject *entered_obj = PyLong_FromLongLong(entered);
                if (entered_obj == NULL)
                    goto seg_fail;
                PyObject *seg = PyTuple_Pack(3, code, entered_obj, now_obj);
                Py_DECREF(entered_obj);
                if (seg == NULL)
                    goto seg_fail;
                int rc;
                if (PyList_CheckExact(segments))
                    rc = PyList_Append(segments, seg);
                else {
                    /* honor list subclasses (the sampling/mask filter
                     * overrides append) */
                    PyObject *res = PyObject_CallMethodObjArgs(
                        segments, str_append, seg, NULL);
                    rc = (res == NULL) ? -1 : 0;
                    Py_XDECREF(res);
                }
                Py_DECREF(seg);
                if (rc < 0)
                    goto seg_fail;
                Py_DECREF(segments);
            }
            else
                Py_DECREF(segments);
            Py_DECREF(txn);
            goto emit;
seg_fail:
            Py_DECREF(segments);
            Py_DECREF(txn);
            goto fail;
        }
        Py_DECREF(txn);
    }
emit:
    if (queue_emit_depth(self, now_obj, len) < 0)
        goto fail;
    return packet;
fail:
    Py_DECREF(packet);
    return NULL;
}

static PyObject *
Queue_refresh_head_key_py(NativeQueue *self, PyObject *Py_UNUSED(ignored))
{
    if (queue_refresh_head_key(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Queue_head(NativeQueue *self, PyObject *Py_UNUSED(ignored))
{
    if (PyList_GET_SIZE(self->items) == 0)
        return PyErr_Format(SimulationError, "peek on empty queue %U", self->name);
    PyObject *head = PyList_GET_ITEM(self->items, 0);
    Py_INCREF(head);
    return head;
}

static PyObject *
Queue_packets(NativeQueue *self, PyObject *Py_UNUSED(ignored))
{
    return PyList_AsTuple(self->items);
}

static PyObject *
Queue_has_space(NativeQueue *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cap < 0 || PyList_GET_SIZE(self->items) < self->cap)
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

static PyObject *
Queue_remove(NativeQueue *self, PyObject *victims)
{
    int any = PyObject_IsTrue(victims);
    if (any < 0)
        return NULL;
    if (!any)
        return PyLong_FromLong(0);
    Py_ssize_t len = PyList_GET_SIZE(self->items);
    PyObject *kept = PyList_New(0);
    if (kept == NULL)
        return NULL;
    long long *kept_times = PyMem_Malloc((size_t)(len ? len : 1) * sizeof(long long));
    if (kept_times == NULL) {
        Py_DECREF(kept);
        PyErr_NoMemory();
        return NULL;
    }
    Py_ssize_t removed = 0, k = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *packet = PyList_GET_ITEM(self->items, i);
        int hit = PySequence_Contains(victims, packet);
        if (hit < 0)
            goto fail;
        if (hit)
            removed += 1;
        else {
            if (PyList_Append(kept, packet) < 0)
                goto fail;
            kept_times[k++] = self->entry[i];
        }
    }
    Py_SETREF(self->items, kept);
    PyMem_Free(self->entry);
    self->entry = kept_times;
    self->entry_cap = (len ? len : 1);
    self->removed_count += removed;
    if (queue_refresh_head_key(self) < 0)
        return NULL;
    return PyLong_FromSsize_t(removed);
fail:
    Py_DECREF(kept);
    PyMem_Free(kept_times);
    return NULL;
}

static Py_ssize_t
Queue_length(NativeQueue *self)
{
    return PyList_GET_SIZE(self->items);
}

static PyObject *
Queue_get_is_empty(NativeQueue *self, void *Py_UNUSED(closure))
{
    if (PyList_GET_SIZE(self->items) == 0)
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

static PyObject *
Queue_get_mean_wait(NativeQueue *self, void *Py_UNUSED(closure))
{
    if (self->popped == 0)
        return PyFloat_FromDouble(0.0);
    return PyFloat_FromDouble((double)self->total_wait_ps / (double)self->popped);
}

static PyObject *
Queue_get_entry_times(NativeQueue *self, void *Py_UNUSED(closure))
{
    /* Cold path (repro.check): rebuild the aligned entry-time view. */
    Py_ssize_t len = PyList_GET_SIZE(self->items);
    PyObject *out = PyList_New(len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *val;
        if (self->entry[i] < 0) {
            val = Py_None;
            Py_INCREF(val);
        }
        else {
            val = PyLong_FromLongLong(self->entry[i]);
            if (val == NULL) {
                Py_DECREF(out);
                return NULL;
            }
        }
        PyList_SET_ITEM(out, i, val);
    }
    return out;
}

static PyObject *
Queue_repr(NativeQueue *self)
{
    Py_ssize_t len = PyList_GET_SIZE(self->items);
    if (self->cap < 0)
        return PyUnicode_FromFormat("NativeQueue(%U, %zd/inf)", self->name, len);
    return PyUnicode_FromFormat("NativeQueue(%U, %zd/%zd)",
                                self->name, len, self->cap);
}

static int
Queue_init(NativeQueue *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"name", "capacity", NULL};
    PyObject *name, *capacity;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "UO", kwlist,
                                     &name, &capacity))
        return -1;
    Py_ssize_t cap = -1;
    if (capacity != Py_None) {
        cap = PyLong_AsSsize_t(capacity);
        if (cap == -1 && PyErr_Occurred())
            return -1;
    }
    PyObject *items = PyList_New(0);
    if (items == NULL)
        return -1;
    /* Intern the attribution labels exactly like InputQueue.__init__ */
    static const char *prefixes[] = {
        "req.queue.%U", "resp.queue.%U", "mem.xfer.queue.%U"};
    PyObject *codes[3] = {NULL, NULL, NULL};
    for (int i = 0; i < 3; i++) {
        PyObject *label = PyUnicode_FromFormat(prefixes[i], name);
        if (label == NULL)
            goto fail;
        codes[i] = PyObject_CallOneArg(segment_code_fn, label);
        Py_DECREF(label);
        if (codes[i] == NULL)
            goto fail;
    }
    Py_INCREF(name);
    Py_XSETREF(self->name, name);
    Py_INCREF(capacity);
    Py_XSETREF(self->capacity, capacity);
    self->cap = cap;
    Py_XSETREF(self->items, items);
    Py_XSETREF(self->seg_req, codes[0]);
    Py_XSETREF(self->seg_resp, codes[1]);
    Py_XSETREF(self->seg_xfer, codes[2]);
    Py_INCREF(Py_None);
    Py_XSETREF(self->head_key, Py_None);
    Py_INCREF(Py_None);
    Py_XSETREF(self->upstream_link, Py_None);
    Py_INCREF(Py_None);
    Py_XSETREF(self->on_drain, Py_None);
    Py_INCREF(Py_None);
    Py_XSETREF(self->tracer, Py_None);
    self->peak_occupancy = 0;
    self->total_wait_ps = 0;
    self->pushed = self->pops = self->popped = self->removed_count = 0;
    return 0;
fail:
    Py_DECREF(items);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(codes[i]);
    return -1;
}

static int
Queue_traverse(NativeQueue *self, visitproc visit, void *arg)
{
    Py_VISIT(self->name);
    Py_VISIT(self->capacity);
    Py_VISIT(self->items);
    Py_VISIT(self->head_key);
    Py_VISIT(self->upstream_link);
    Py_VISIT(self->on_drain);
    Py_VISIT(self->tracer);
    Py_VISIT(self->seg_req);
    Py_VISIT(self->seg_resp);
    Py_VISIT(self->seg_xfer);
    return 0;
}

static int
Queue_clear(NativeQueue *self)
{
    Py_CLEAR(self->name);
    Py_CLEAR(self->capacity);
    Py_CLEAR(self->items);
    Py_CLEAR(self->head_key);
    Py_CLEAR(self->upstream_link);
    Py_CLEAR(self->on_drain);
    Py_CLEAR(self->tracer);
    Py_CLEAR(self->seg_req);
    Py_CLEAR(self->seg_resp);
    Py_CLEAR(self->seg_xfer);
    return 0;
}

static void
Queue_dealloc(NativeQueue *self)
{
    PyObject_GC_UnTrack(self);
    Queue_clear(self);
    PyMem_Free(self->entry);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Queue_methods[] = {
    {"push", (PyCFunction)(void (*)(void))Queue_push, METH_FASTCALL,
     "Append a packet (overflow raises: credit accounting is broken)."},
    {"pop", (PyCFunction)(void (*)(void))Queue_pop, METH_FASTCALL,
     "Remove and return the head packet, folding wait accounting."},
    {"refresh_head_key", (PyCFunction)Queue_refresh_head_key_py, METH_NOARGS,
     "Recompute head_key after an in-place route rewrite (RAS)."},
    {"head", (PyCFunction)Queue_head, METH_NOARGS, "Peek the head packet."},
    {"packets", (PyCFunction)Queue_packets, METH_NOARGS,
     "Snapshot of queued packets, head first."},
    {"has_space", (PyCFunction)Queue_has_space, METH_NOARGS, NULL},
    {"remove", (PyCFunction)Queue_remove, METH_O,
     "Drop every queued packet in victims (RAS quiesce)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Queue_members[] = {
    {"name", T_OBJECT, offsetof(NativeQueue, name), READONLY, NULL},
    {"capacity", T_OBJECT, offsetof(NativeQueue, capacity), READONLY, NULL},
    {"_items", T_OBJECT, offsetof(NativeQueue, items), READONLY,
     "Queued packets (head first); the router arbitration loop reads "
     "this directly, exactly as with the pure-Python InputQueue."},
    {"head_key", T_OBJECT, offsetof(NativeQueue, head_key), READONLY, NULL},
    {"upstream_link", T_OBJECT, offsetof(NativeQueue, upstream_link), 0, NULL},
    {"on_drain", T_OBJECT, offsetof(NativeQueue, on_drain), 0, NULL},
    {"tracer", T_OBJECT, offsetof(NativeQueue, tracer), 0, NULL},
    {"peak_occupancy", T_PYSSIZET, offsetof(NativeQueue, peak_occupancy),
     READONLY, NULL},
    {"total_wait_ps", T_LONGLONG, offsetof(NativeQueue, total_wait_ps),
     READONLY, NULL},
    {"pushed", T_PYSSIZET, offsetof(NativeQueue, pushed), READONLY, NULL},
    {"pops", T_PYSSIZET, offsetof(NativeQueue, pops), READONLY, NULL},
    {"popped", T_PYSSIZET, offsetof(NativeQueue, popped), READONLY, NULL},
    {"removed_count", T_PYSSIZET, offsetof(NativeQueue, removed_count),
     READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef Queue_getset[] = {
    {"is_empty", (getter)Queue_get_is_empty, NULL, NULL, NULL},
    {"mean_wait_ps", (getter)Queue_get_mean_wait, NULL,
     "Mean time packets spent waiting in this queue.", NULL},
    {"_entry_times", (getter)Queue_get_entry_times, NULL,
     "Aligned entry-time view (repro.check cold path).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods Queue_as_sequence = {
    .sq_length = (lenfunc)Queue_length,
};

static PyTypeObject NativeQueue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._native.NativeQueue",
    .tp_basicsize = sizeof(NativeQueue),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled finite FIFO, duck-compatible with InputQueue.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Queue_init,
    .tp_dealloc = (destructor)Queue_dealloc,
    .tp_traverse = (traverseproc)Queue_traverse,
    .tp_clear = (inquiry)Queue_clear,
    .tp_repr = (reprfunc)Queue_repr,
    .tp_methods = Queue_methods,
    .tp_members = Queue_members,
    .tp_getset = Queue_getset,
    .tp_as_sequence = &Queue_as_sequence,
};

/* ================================================================== */
/* router arbitration (Router._try_output compiled)                    */
/* ================================================================== */

/* The native backend replaces Router._try_output — the profile's
 * hottest pure-Python frame — with the loop below, via the thin
 * NativeRouter subclass in repro.sim.native.  The control flow is a
 * line-for-line transcription of router.py's _try_output; every
 * Python-visible side effect (arbiter.pick, link.send, credit
 * returns, tracer hooks, counter updates) happens through the same
 * calls in the same order, so event sequences and result digests are
 * identical.  Queues are normally NativeQueue (direct struct access);
 * a PySequence fallback keeps plain InputQueue working too. */

#define ROUTER_MAX_INPUTS 64

/* queue.head_key == key without raising on None.  1/0/-1. */
static int
queue_key_matches(PyObject *queue, PyObject *key)
{
    PyObject *hk;
    int native = Py_IS_TYPE(queue, &NativeQueue_Type);
    if (native)
        hk = ((NativeQueue *)queue)->head_key;  /* borrowed */
    else {
        hk = PyObject_GetAttr(queue, str_head_key);
        if (hk == NULL)
            return -1;
    }
    int eq;
    if (hk == key)
        eq = 1;
    else if (hk == NULL || hk == Py_None)
        eq = 0;
    else
        eq = PyObject_RichCompareBool(hk, key, Py_EQ);
    if (!native)
        Py_DECREF(hk);
    return eq;
}

/* The head packet of a queue, or NULL with no error set when the
 * queue is empty (router.py's stale-cache tolerance).  New ref. */
static PyObject *
queue_head_packet(PyObject *queue)
{
    if (Py_IS_TYPE(queue, &NativeQueue_Type)) {
        PyObject *items = ((NativeQueue *)queue)->items;
        if (items == NULL || PyList_GET_SIZE(items) == 0)
            return NULL;
        PyObject *head = PyList_GET_ITEM(items, 0);
        Py_INCREF(head);
        return head;
    }
    PyObject *items = PyObject_GetAttr(queue, str_items);
    if (items == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Size(items);
    if (len < 0) {
        Py_DECREF(items);
        return NULL;
    }
    if (len == 0) {
        Py_DECREF(items);
        return NULL;  /* no error: stale-cache skip */
    }
    PyObject *head = PySequence_GetItem(items, 0);
    Py_DECREF(items);
    return head;
}

/* link.dead or now < channel._busy_until or credits exhausted.
 * 1 blocked / 0 free / -1 error; *dead_out reports link.dead. */
static int
link_blocked(PyObject *link, long long now, int *dead_out)
{
    PyObject *flag = PyObject_GetAttr(link, str_dead);
    if (flag == NULL)
        return -1;
    int dead = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (dead < 0)
        return -1;
    *dead_out = dead;
    if (dead)
        return 1;
    PyObject *channel = PyObject_GetAttr(link, str_channel);
    if (channel == NULL)
        return -1;
    PyObject *busy = PyObject_GetAttr(channel, str_busy_until);
    Py_DECREF(channel);
    if (busy == NULL)
        return -1;
    long long busy_until = PyLong_AsLongLong(busy);
    Py_DECREF(busy);
    if (busy_until == -1 && PyErr_Occurred())
        return -1;
    if (now < busy_until)
        return 1;
    PyObject *credits = PyObject_GetAttr(link, str_credits);
    if (credits == NULL)
        return -1;
    if (credits == Py_None) {
        Py_DECREF(credits);
        return 0;
    }
    long long c = PyLong_AsLongLong(credits);
    Py_DECREF(credits);
    if (c == -1 && PyErr_Occurred())
        return -1;
    return c <= 0;
}

static int
call_discard(PyObject *obj, PyObject *meth, PyObject *a, PyObject *b)
{
    PyObject *res = PyObject_CallMethodObjArgs(obj, meth, a, b, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static int
router_try_output(PyObject *router, PyObject *engine, PyObject *key)
{
    int result = -1;
    PyObject *entry = NULL, *inputs = NULL, *grants = NULL, *retry = NULL;

    PyObject *ports = PyObject_GetAttr(router, str_ports);
    if (ports == NULL)
        return -1;
    entry = PyDict_GetItemWithError(ports, key);
    Py_XINCREF(entry);
    Py_DECREF(ports);
    if (entry == NULL) {
        if (!PyErr_Occurred()) {
            PyObject *name = PyObject_GetAttr(router, str_name);
            if (name != NULL) {
                PyErr_Format(SimulationError,
                             "router %U: head packet needs unknown output %R",
                             name, key);
                Py_DECREF(name);
            }
        }
        return -1;
    }
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(SimulationError, "router _ports entry must be a "
                        "(port, arbiter, link) tuple");
        goto done;
    }
    PyObject *port = PyTuple_GET_ITEM(entry, 0);    /* borrowed */
    PyObject *arbiter = PyTuple_GET_ITEM(entry, 1); /* borrowed */
    PyObject *link = PyTuple_GET_ITEM(entry, 2);    /* borrowed */
    int has_link = (link != Py_None);
    inputs = PyObject_GetAttr(router, str_inputs);
    if (inputs == NULL)
        goto done;
    if (!PyList_Check(inputs)) {
        PyErr_SetString(PyExc_TypeError, "router.inputs must be a list");
        goto done;
    }
    grants = PyObject_GetAttr(router, str_grants);
    if (grants == NULL)
        goto done;
    if (!PyDict_Check(grants)) {
        PyErr_SetString(PyExc_TypeError, "router.grants must be a dict");
        goto done;
    }
    PyObject *rp = PyObject_GetAttr(router, str_response_priority);
    if (rp == NULL)
        goto done;
    int response_priority = PyObject_IsTrue(rp);
    Py_DECREF(rp);
    if (response_priority < 0)
        goto done;

    for (;;) {
        long long now;
        PyObject *now_obj;
        if (Py_IS_TYPE(engine, &NativeEngine_Type)) {
            now = ((NativeEngine *)engine)->now;
            now_obj = PyLong_FromLongLong(now);
            if (now_obj == NULL)
                goto done;
        }
        else {
            now_obj = PyObject_GetAttr(engine, str_now);
            if (now_obj == NULL)
                goto done;
            now = PyLong_AsLongLong(now_obj);
            if (now == -1 && PyErr_Occurred()) {
                Py_DECREF(now_obj);
                goto done;
            }
        }

        Py_ssize_t n_inputs = PyList_GET_SIZE(inputs);
        if (n_inputs > ROUTER_MAX_INPUTS) {
            PyErr_Format(SimulationError,
                         "native router supports at most %d inputs",
                         ROUTER_MAX_INPUTS);
            Py_DECREF(now_obj);
            goto done;
        }

        if (has_link) {
            int dead = 0;
            int blocked = link_blocked(link, now, &dead);
            if (blocked < 0) {
                Py_DECREF(now_obj);
                goto done;
            }
            if (blocked) {
                /* Blocked: if any head wants this output, register the
                 * single wake-up (channel idle / credit return). */
                for (Py_ssize_t i = 0; i < n_inputs; i++) {
                    int m = queue_key_matches(PyList_GET_ITEM(inputs, i),
                                              key);
                    if (m < 0) {
                        Py_DECREF(now_obj);
                        goto done;
                    }
                    if (m) {
                        if (call_discard(port, str_request_wakeup,
                                         engine, NULL) < 0) {
                            Py_DECREF(now_obj);
                            goto done;
                        }
                        break;
                    }
                }
                Py_DECREF(now_obj);
                break;
            }
        }

        /* candidate scan: every queue whose head needs this output */
        Py_ssize_t idxs[ROUTER_MAX_INPUTS];
        PyObject *heads[ROUTER_MAX_INPUTS];  /* owned */
        int resps[ROUTER_MAX_INPUTS];
        Py_ssize_t n_cand = 0, resp_count = 0;
        int demand = 0;
        for (Py_ssize_t i = 0; i < n_inputs; i++) {
            PyObject *q = PyList_GET_ITEM(inputs, i);
            int m = queue_key_matches(q, key);
            if (m < 0)
                goto scan_fail;
            if (!m)
                continue;
            PyObject *head = queue_head_packet(q);
            if (head == NULL) {
                if (PyErr_Occurred())
                    goto scan_fail;
                continue;  /* stale head-key cache: auditor's problem */
            }
            if (!has_link) {
                demand = 1;
                PyObject *ok = PyObject_CallMethodObjArgs(
                    port, str_can_accept, now_obj, head, NULL);
                if (ok == NULL) {
                    Py_DECREF(head);
                    goto scan_fail;
                }
                int acc = PyObject_IsTrue(ok);
                Py_DECREF(ok);
                if (acc < 0) {
                    Py_DECREF(head);
                    goto scan_fail;
                }
                if (!acc) {
                    Py_DECREF(head);
                    continue;
                }
            }
            PyObject *flag = PyObject_GetAttr(head, str_is_resp);
            if (flag == NULL) {
                Py_DECREF(head);
                goto scan_fail;
            }
            int is_resp = PyObject_IsTrue(flag);
            Py_DECREF(flag);
            if (is_resp < 0) {
                Py_DECREF(head);
                goto scan_fail;
            }
            idxs[n_cand] = i;
            heads[n_cand] = head;
            resps[n_cand] = is_resp;
            n_cand++;
            resp_count += is_resp;
        }

        if (n_cand == 0) {
            if (demand &&
                call_discard(port, str_request_wakeup, engine, NULL) < 0) {
                Py_DECREF(now_obj);
                goto done;
            }
            Py_DECREF(now_obj);
            break;
        }

        /* responses first on contended shared links (Section 3.2) */
        Py_ssize_t n_pick = n_cand;
        if (resp_count && resp_count != n_cand && response_priority) {
            Py_ssize_t j = 0;
            for (Py_ssize_t i = 0; i < n_cand; i++) {
                if (resps[i]) {
                    idxs[j] = idxs[i];
                    heads[j] = heads[i];
                    j++;
                }
                else
                    Py_DECREF(heads[i]);
            }
            n_pick = j;
        }

        PyObject *cand_list = PyList_New(n_pick);
        if (cand_list == NULL)
            goto scan_fail2;
        for (Py_ssize_t i = 0; i < n_pick; i++) {
            PyObject *io = PyLong_FromSsize_t(idxs[i]);
            PyObject *t = io ? PyTuple_Pack(2, io, heads[i]) : NULL;
            Py_XDECREF(io);
            if (t == NULL) {
                Py_DECREF(cand_list);
                goto scan_fail2;
            }
            PyList_SET_ITEM(cand_list, i, t);
        }
        PyObject *pos_obj = PyObject_CallMethodObjArgs(
            arbiter, str_pick, now_obj, cand_list, NULL);
        Py_DECREF(cand_list);
        if (pos_obj == NULL)
            goto scan_fail2;
        Py_ssize_t pos = PyNumber_AsSsize_t(pos_obj, PyExc_OverflowError);
        Py_DECREF(pos_obj);
        if (pos == -1 && PyErr_Occurred())
            goto scan_fail2;
        if (pos < 0 || pos >= n_pick) {
            PyObject *aname = PyObject_GetAttr(arbiter, str_name);
            if (aname != NULL) {
                PyErr_Format(SimulationError,
                             "arbiter %S returned invalid index %zd",
                             aname, pos);
                Py_DECREF(aname);
            }
            goto scan_fail2;
        }

        Py_ssize_t index = idxs[pos];
        PyObject *packet = heads[pos];  /* owned; consumed below */
        for (Py_ssize_t i = 0; i < n_pick; i++)
            if (i != pos)
                Py_DECREF(heads[i]);
        PyObject *queue = PyList_GET_ITEM(inputs, index);
        Py_INCREF(queue);

        PyObject *popped;
        if (Py_IS_TYPE(queue, &NativeQueue_Type)) {
            PyObject *pop_args[1] = {now_obj};
            popped = Queue_pop((NativeQueue *)queue, pop_args, 1);
        }
        else
            popped = PyObject_CallMethodObjArgs(queue, str_pop, now_obj,
                                                NULL);
        if (popped == NULL)
            goto grant_fail;
        int was_head = (popped == packet);
        Py_DECREF(popped);
        if (!was_head) {
            PyErr_SetString(SimulationError,
                            "arbiter must select queue heads");
            goto grant_fail;
        }

        /* arbiter.grants += 1; self.grants[key] += 1 */
        PyObject *g = PyObject_GetAttr(arbiter, str_grants);
        if (g == NULL)
            goto grant_fail;
        PyObject *ng = PyNumber_Add(g, long_one);
        Py_DECREF(g);
        if (ng == NULL || PyObject_SetAttr(arbiter, str_grants, ng) < 0) {
            Py_XDECREF(ng);
            goto grant_fail;
        }
        Py_DECREF(ng);
        g = PyDict_GetItemWithError(grants, key);
        if (g == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, key);
            goto grant_fail;
        }
        ng = PyNumber_Add(g, long_one);
        if (ng == NULL || PyDict_SetItem(grants, key, ng) < 0) {
            Py_XDECREF(ng);
            goto grant_fail;
        }
        Py_DECREF(ng);

        PyObject *tracer = PyObject_GetAttr(router, str_tracer);
        if (tracer == NULL)
            goto grant_fail;
        if (tracer != Py_None) {
            PyObject *rname = PyObject_GetAttr(router, str_name);
            PyObject *nc = PyLong_FromSsize_t(n_pick);
            PyObject *res = (rname && nc) ? PyObject_CallMethodObjArgs(
                tracer, str_router_grant, rname, now_obj, key, packet, nc,
                NULL) : NULL;
            Py_XDECREF(rname);
            Py_XDECREF(nc);
            if (res == NULL) {
                Py_DECREF(tracer);
                goto grant_fail;
            }
            Py_DECREF(res);
        }
        Py_DECREF(tracer);

        if (has_link) {
            if (call_discard(link, str_send, engine, packet) < 0)
                goto grant_fail;
        }
        else {
            PyObject *io = PyLong_FromSsize_t(index);
            if (io == NULL)
                goto grant_fail;
            PyObject *res = PyObject_CallMethodObjArgs(
                port, str_dispatch, engine, packet, io, NULL);
            Py_DECREF(io);
            if (res == NULL)
                goto grant_fail;
            Py_DECREF(res);
        }

        /* hand the freed slot upstream: link credit or local drain */
        PyObject *upstream;
        if (Py_IS_TYPE(queue, &NativeQueue_Type)) {
            upstream = ((NativeQueue *)queue)->upstream_link;
            upstream = upstream ? upstream : Py_None;
            Py_INCREF(upstream);
        }
        else {
            upstream = PyObject_GetAttr(queue, str_upstream_link);
            if (upstream == NULL)
                goto grant_fail;
        }
        if (upstream != Py_None) {
            int rc = call_discard(upstream, str_return_credit, engine,
                                  NULL);
            Py_DECREF(upstream);
            if (rc < 0)
                goto grant_fail;
        }
        else {
            Py_DECREF(upstream);
            PyObject *on_drain;
            if (Py_IS_TYPE(queue, &NativeQueue_Type)) {
                on_drain = ((NativeQueue *)queue)->on_drain;
                on_drain = on_drain ? on_drain : Py_None;
                Py_INCREF(on_drain);
            }
            else {
                on_drain = PyObject_GetAttr(queue, str_on_drain);
                if (on_drain == NULL)
                    goto grant_fail;
            }
            if (on_drain != Py_None) {
                PyObject *res = PyObject_CallFunctionObjArgs(on_drain,
                                                             engine, NULL);
                Py_DECREF(on_drain);
                if (res == NULL)
                    goto grant_fail;
                Py_DECREF(res);
            }
            else
                Py_DECREF(on_drain);
        }

        /* the pop exposed a new head; a different output needs its own
         * arbitration round once this one settles */
        PyObject *new_key;
        if (Py_IS_TYPE(queue, &NativeQueue_Type)) {
            new_key = ((NativeQueue *)queue)->head_key;
            new_key = new_key ? new_key : Py_None;
            Py_INCREF(new_key);
        }
        else {
            new_key = PyObject_GetAttr(queue, str_head_key);
            if (new_key == NULL)
                goto grant_fail;
        }
        int head_same;
        if (new_key == key)
            head_same = 1;
        else if (new_key == Py_None)
            head_same = 0;
        else {
            head_same = PyObject_RichCompareBool(new_key, key, Py_EQ);
            if (head_same < 0) {
                Py_DECREF(new_key);
                goto grant_fail;
            }
        }
        if (!head_same && new_key != Py_None) {
            if (retry == NULL) {
                retry = PyList_New(0);
                if (retry == NULL) {
                    Py_DECREF(new_key);
                    goto grant_fail;
                }
            }
            int c = PySequence_Contains(retry, new_key);
            if (c < 0 || (!c && PyList_Append(retry, new_key) < 0)) {
                Py_DECREF(new_key);
                goto grant_fail;
            }
        }
        Py_DECREF(new_key);
        Py_DECREF(queue);
        Py_DECREF(packet);

        if (has_link) {
            int dead = 0;
            int blocked = link_blocked(link, now, &dead);
            if (blocked < 0) {
                Py_DECREF(now_obj);
                goto done;
            }
            if (blocked) {
                /* The send serialized the channel (or spent the last
                 * credit): the round is over.  Remaining demand is the
                 * unpicked candidates plus the popped queue's new
                 * head — register the wake-up instead of rescanning. */
                if (n_cand > 1 || head_same) {
                    if (!dead) {
                        PyObject *channel = PyObject_GetAttr(link,
                                                             str_channel);
                        if (channel == NULL) {
                            Py_DECREF(now_obj);
                            goto done;
                        }
                        int rc = call_discard(channel, str_wake_when_idle,
                                              engine, link);
                        Py_DECREF(channel);
                        if (rc < 0) {
                            Py_DECREF(now_obj);
                            goto done;
                        }
                    }
                }
                Py_DECREF(now_obj);
                break;
            }
        }
        Py_DECREF(now_obj);
        continue;  /* local ports (and zero-occupancy links) rescan */

scan_fail:
        for (Py_ssize_t i = 0; i < n_cand; i++)
            Py_DECREF(heads[i]);
        Py_DECREF(now_obj);
        goto done;
scan_fail2:
        for (Py_ssize_t i = 0; i < n_pick; i++)
            Py_DECREF(heads[i]);
        Py_DECREF(now_obj);
        goto done;
grant_fail:
        Py_DECREF(queue);
        Py_DECREF(packet);
        Py_DECREF(now_obj);
        goto done;
    }

    result = 0;
    if (retry != NULL) {
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(retry); i++) {
            if (router_try_output(router, engine,
                                  PyList_GET_ITEM(retry, i)) < 0) {
                result = -1;
                break;
            }
        }
    }
done:
    Py_XDECREF(retry);
    Py_XDECREF(grants);
    Py_XDECREF(inputs);
    Py_XDECREF(entry);
    return result;
}

static PyObject *
mod_router_try_output(PyObject *module, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "router_try_output(router, engine, key)");
        return NULL;
    }
    if (router_try_output(args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
mod_router_packet_arrived(PyObject *module, PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "router_packet_arrived(router, engine, queue)");
        return NULL;
    }
    PyObject *router = args[0], *engine = args[1], *queue = args[2];
    /* Only a push that lands at the head can change an arbitration
     * outcome (see router.py); deeper pushes are parked behind it. */
    PyObject *head_key;
    Py_ssize_t depth;
    if (Py_IS_TYPE(queue, &NativeQueue_Type)) {
        NativeQueue *q = (NativeQueue *)queue;
        depth = q->items ? PyList_GET_SIZE(q->items) : 0;
        head_key = q->head_key ? q->head_key : Py_None;
        Py_INCREF(head_key);
    }
    else {
        PyObject *items = PyObject_GetAttr(queue, str_items);
        if (items == NULL)
            return NULL;
        depth = PySequence_Size(items);
        Py_DECREF(items);
        if (depth < 0)
            return NULL;
        head_key = PyObject_GetAttr(queue, str_head_key);
        if (head_key == NULL)
            return NULL;
    }
    if (depth != 1) {
        Py_DECREF(head_key);
        Py_RETURN_NONE;
    }
    int rc = router_try_output(router, engine, head_key);
    Py_DECREF(head_key);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
mod_router_has_response_head(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "router_has_response_head(router, key)");
        return NULL;
    }
    PyObject *inputs = PyObject_GetAttr(args[0], str_inputs);
    if (inputs == NULL)
        return NULL;
    if (!PyList_Check(inputs)) {
        Py_DECREF(inputs);
        PyErr_SetString(PyExc_TypeError, "router.inputs must be a list");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(inputs); i++) {
        PyObject *q = PyList_GET_ITEM(inputs, i);
        int m = queue_key_matches(q, args[1]);
        if (m < 0)
            goto fail;
        if (!m)
            continue;
        PyObject *head = queue_head_packet(q);
        if (head == NULL) {
            if (PyErr_Occurred())
                goto fail;
            /* matching head_key over an empty queue: router.py would
             * raise IndexError here; match it */
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            goto fail;
        }
        PyObject *flag = PyObject_GetAttr(head, str_is_resp);
        Py_DECREF(head);
        if (flag == NULL)
            goto fail;
        int is_resp = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (is_resp < 0)
            goto fail;
        if (is_resp) {
            Py_DECREF(inputs);
            Py_RETURN_TRUE;
        }
    }
    Py_DECREF(inputs);
    Py_RETURN_FALSE;
fail:
    Py_DECREF(inputs);
    return NULL;
}

/* ================================================================== */
/* module                                                              */
/* ================================================================== */

static PyMethodDef module_methods[] = {
    {"router_try_output",
     (PyCFunction)(void (*)(void))mod_router_try_output, METH_FASTCALL,
     "Compiled Router._try_output arbitration round for one output."},
    {"router_packet_arrived",
     (PyCFunction)(void (*)(void))mod_router_packet_arrived, METH_FASTCALL,
     "Compiled Router.packet_arrived (head-only arbitration trigger)."},
    {"router_has_response_head",
     (PyCFunction)(void (*)(void))mod_router_has_response_head,
     METH_FASTCALL,
     "Compiled Router.has_response_head (response-priority probe)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._native",
    .m_doc = "Compiled engine + network inner loop (Engine(\"native\")).",
    .m_size = -1,
    .m_methods = module_methods,
};

static PyObject *
import_attr(const char *module, const char *attr)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *obj = PyObject_GetAttrString(mod, attr);
    Py_DECREF(mod);
    return obj;
}

PyMODINIT_FUNC
PyInit__native(void)
{
    SimulationError = import_attr("repro.errors", "SimulationError");
    if (SimulationError == NULL)
        return NULL;
    segment_code_fn = import_attr("repro.obs.attribution", "segment_code");
    if (segment_code_fn == NULL)
        return NULL;

    str_qualname = PyUnicode_InternFromString("__qualname__");
    str_engine_event = PyUnicode_InternFromString("engine_event");
    str_queue_depth = PyUnicode_InternFromString("queue_depth");
    str_route = PyUnicode_InternFromString("route");
    str_hop_index = PyUnicode_InternFromString("hop_index");
    str_transaction = PyUnicode_InternFromString("transaction");
    str_segments = PyUnicode_InternFromString("segments");
    str_is_xfer = PyUnicode_InternFromString("is_xfer");
    str_is_req = PyUnicode_InternFromString("is_req");
    str_append = PyUnicode_InternFromString("append");
    long_neg_one = PyLong_FromLong(-1);
    long_one = PyLong_FromLong(1);
    if (str_qualname == NULL || str_engine_event == NULL ||
        str_queue_depth == NULL || str_route == NULL ||
        str_hop_index == NULL || str_transaction == NULL ||
        str_segments == NULL || str_is_xfer == NULL ||
        str_is_req == NULL || str_append == NULL || long_neg_one == NULL ||
        long_one == NULL)
        return NULL;

    static struct {
        PyObject **slot;
        const char *text;
    } router_names[] = {
        {&str_now, "now"},
        {&str_dead, "dead"},
        {&str_channel, "channel"},
        {&str_busy_until, "_busy_until"},
        {&str_credits, "_credits"},
        {&str_is_resp, "is_resp"},
        {&str_request_wakeup, "request_wakeup"},
        {&str_pick, "pick"},
        {&str_grants, "grants"},
        {&str_can_accept, "can_accept"},
        {&str_send, "send"},
        {&str_dispatch, "dispatch"},
        {&str_upstream_link, "upstream_link"},
        {&str_on_drain, "on_drain"},
        {&str_return_credit, "return_credit"},
        {&str_router_grant, "router_grant"},
        {&str_wake_when_idle, "wake_when_idle"},
        {&str_ports, "_ports"},
        {&str_inputs, "inputs"},
        {&str_response_priority, "response_priority"},
        {&str_name, "name"},
        {&str_head_key, "head_key"},
        {&str_items, "_items"},
        {&str_pop, "pop"},
        {&str_tracer, "tracer"},
        {NULL, NULL},
    };
    for (int i = 0; router_names[i].slot != NULL; i++) {
        *router_names[i].slot =
            PyUnicode_InternFromString(router_names[i].text);
        if (*router_names[i].slot == NULL)
            return NULL;
    }

    if (PyType_Ready(&NativeEngine_Type) < 0)
        return NULL;
    if (PyType_Ready(&NativeQueue_Type) < 0)
        return NULL;

    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&NativeEngine_Type);
    if (PyModule_AddObject(module, "NativeEngine",
                           (PyObject *)&NativeEngine_Type) < 0) {
        Py_DECREF(&NativeEngine_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&NativeQueue_Type);
    if (PyModule_AddObject(module, "NativeQueue",
                           (PyObject *)&NativeQueue_Type) < 0) {
        Py_DECREF(&NativeQueue_Type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

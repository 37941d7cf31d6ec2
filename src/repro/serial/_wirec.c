/* Compiled fast path for the DPS wire codec (repro/serial/wire.py).
 *
 * A hand-written CPython extension implementing the encode/decode value
 * visitors for the common subset of the wire format: exact-type scalars
 * (None, bool, int64, bigint, float64, str, bytes, bytearray), the
 * container tags (list, tuple, dict, Vector) and — through Python
 * helper callbacks installed by `setup()` — inline ndarray/Buffer
 * payloads below the scatter-gather segment threshold.
 *
 * Anything outside that subset (numpy scalars, memoryviews, subclasses,
 * nested tokens, arrays at or above the segment threshold whose bytes
 * must be borrowed zero-copy) raises the `Unsupported` exception passed
 * to `setup()`; the Python caller then falls back to the generic
 * visitor, whose bytes this module reproduces bit-identically for
 * everything it does accept (pinned by the parity property suite).
 *
 * The module is built best-effort (`optional=True` in setup.py) and
 * loaded best-effort (`repro.serial.wire`): importing `repro` never
 * requires a C compiler.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* Wire tags (must match wire.Tag). */
#define TAG_NONE 0
#define TAG_FALSE 1
#define TAG_TRUE 2
#define TAG_INT64 3
#define TAG_FLOAT64 4
#define TAG_STR 5
#define TAG_BYTES 6
#define TAG_BIGINT 7
#define TAG_NDARRAY 8
#define TAG_BUFFER 9
#define TAG_VECTOR 10
#define TAG_LIST 11
#define TAG_TUPLE 12
#define TAG_DICT 13
#define TAG_TOKEN 14

#define MAX_DEPTH 64

typedef struct {
    PyObject *unsupported;   /* exception class: fall back to pure path */
    PyObject *buffer_cls;    /* repro.serial.containers.Buffer */
    PyObject *vector_cls;    /* repro.serial.containers.Vector */
    PyObject *ndarray_cls;   /* numpy.ndarray */
    PyObject *encode_array;  /* callable(arr) -> bytes (hdr + payload) */
    PyObject *decode_array;  /* callable(view, off, copy, as_buffer)
                                -> (obj, new_off) */
    PyObject *str_items;     /* interned "items" */
    PyObject *str_array;     /* interned "array" */
} wirec_state;

static wirec_state state; /* single-interpreter module state */
static int state_ready = 0;

static int
raise_unsupported(void)
{
    PyErr_SetNone(state.unsupported);
    return -1;
}

/* ------------------------------------------------------------------ */
/* growable output buffer                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    char *buf;
    Py_ssize_t len;
    Py_ssize_t cap;
} writer;

static int
w_grow(writer *w, Py_ssize_t extra)
{
    Py_ssize_t need = w->len + extra;
    Py_ssize_t cap = w->cap;
    char *nbuf;
    if (need <= cap)
        return 0;
    while (cap < need)
        cap = cap + (cap >> 1) + 64;
    nbuf = PyMem_Realloc(w->buf, cap);
    if (nbuf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->buf = nbuf;
    w->cap = cap;
    return 0;
}

static inline int
w_bytes(writer *w, const char *p, Py_ssize_t n)
{
    if (w->len + n > w->cap && w_grow(w, n) < 0)
        return -1;
    memcpy(w->buf + w->len, p, n);
    w->len += n;
    return 0;
}

static inline int
w_u8(writer *w, unsigned char v)
{
    if (w->len + 1 > w->cap && w_grow(w, 1) < 0)
        return -1;
    w->buf[w->len++] = (char)v;
    return 0;
}

static inline int
w_u16(writer *w, uint16_t v)
{
    unsigned char b[2] = {(unsigned char)(v & 0xff),
                          (unsigned char)(v >> 8)};
    return w_bytes(w, (const char *)b, 2);
}

static inline int
w_u32(writer *w, uint32_t v)
{
    unsigned char b[4] = {(unsigned char)(v & 0xff),
                          (unsigned char)((v >> 8) & 0xff),
                          (unsigned char)((v >> 16) & 0xff),
                          (unsigned char)((v >> 24) & 0xff)};
    return w_bytes(w, (const char *)b, 4);
}

static inline int
w_u64(writer *w, uint64_t v)
{
    unsigned char b[8];
    int i;
    for (i = 0; i < 8; i++)
        b[i] = (unsigned char)((v >> (8 * i)) & 0xff);
    return w_bytes(w, (const char *)b, 8);
}

/* ------------------------------------------------------------------ */
/* encode                                                             */
/* ------------------------------------------------------------------ */

static int enc_value(writer *w, PyObject *v, int depth);

static int
enc_array(writer *w, PyObject *arr)
{
    PyObject *raw = PyObject_CallOneArg(state.encode_array, arr);
    int rc;
    if (raw == NULL)
        return -1; /* Unsupported (>= threshold) or WireError propagate */
    if (!PyBytes_CheckExact(raw)) {
        Py_DECREF(raw);
        PyErr_SetString(PyExc_TypeError,
                        "encode_array helper must return bytes");
        return -1;
    }
    rc = w_bytes(w, PyBytes_AS_STRING(raw), PyBytes_GET_SIZE(raw));
    Py_DECREF(raw);
    return rc;
}

static int
enc_str(writer *w, PyObject *v)
{
    Py_ssize_t n;
    const char *p = PyUnicode_AsUTF8AndSize(v, &n);
    if (p == NULL)
        return -1;
    if (n > (Py_ssize_t)UINT32_MAX)
        return raise_unsupported();
    if (w_u8(w, TAG_STR) < 0 || w_u32(w, (uint32_t)n) < 0)
        return -1;
    return w_bytes(w, p, n);
}

static int
enc_int(writer *w, PyObject *v)
{
    int overflow = 0;
    long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (x == -1 && !overflow && PyErr_Occurred())
        return -1;
    if (!overflow) {
        if (w_u8(w, TAG_INT64) < 0)
            return -1;
        return w_u64(w, (uint64_t)x);
    }
    /* BIGINT: ASCII digits of str(v). */
    {
        PyObject *s = PyObject_Str(v);
        Py_ssize_t n;
        const char *p;
        int rc;
        if (s == NULL)
            return -1;
        p = PyUnicode_AsUTF8AndSize(s, &n);
        if (p == NULL) {
            Py_DECREF(s);
            return -1;
        }
        rc = (w_u8(w, TAG_BIGINT) < 0 || w_u32(w, (uint32_t)n) < 0 ||
              w_bytes(w, p, n) < 0) ? -1 : 0;
        Py_DECREF(s);
        return rc;
    }
}

static int
enc_float(writer *w, PyObject *v)
{
    union {
        double f;
        uint64_t u;
    } bits;
    bits.f = PyFloat_AS_DOUBLE(v);
    if (w_u8(w, TAG_FLOAT64) < 0)
        return -1;
    return w_u64(w, bits.u);
}

static int
enc_dict(writer *w, PyObject *v, int depth)
{
    PyObject *key, *item;
    Py_ssize_t pos = 0;
    if (w_u8(w, TAG_DICT) < 0 ||
        w_u32(w, (uint32_t)PyDict_GET_SIZE(v)) < 0)
        return -1;
    while (PyDict_Next(v, &pos, &key, &item)) {
        Py_ssize_t n;
        const char *p;
        if (!PyUnicode_CheckExact(key))
            return raise_unsupported(); /* pure path raises WireError */
        p = PyUnicode_AsUTF8AndSize(key, &n);
        if (p == NULL)
            return -1;
        if (n > 0xFFFF)
            return raise_unsupported(); /* pure path raises struct.error */
        if (w_u16(w, (uint16_t)n) < 0 || w_bytes(w, p, n) < 0)
            return -1;
        if (enc_value(w, item, depth) < 0)
            return -1;
    }
    return 0;
}

static int
enc_sequence(writer *w, PyObject *v, unsigned char tag, int depth)
{
    Py_ssize_t i, n = PySequence_Fast_GET_SIZE(v);
    PyObject **items = PySequence_Fast_ITEMS(v);
    if (n > (Py_ssize_t)UINT32_MAX)
        return raise_unsupported();
    if (w_u8(w, tag) < 0 || w_u32(w, (uint32_t)n) < 0)
        return -1;
    for (i = 0; i < n; i++) {
        if (enc_value(w, items[i], depth) < 0)
            return -1;
    }
    return 0;
}

static int
enc_value(writer *w, PyObject *v, int depth)
{
    PyTypeObject *t;
    if (depth >= MAX_DEPTH)
        return raise_unsupported();
    depth += 1;
    if (v == Py_None)
        return w_u8(w, TAG_NONE);
    if (v == Py_True)
        return w_u8(w, TAG_TRUE);
    if (v == Py_False)
        return w_u8(w, TAG_FALSE);
    t = Py_TYPE(v);
    if (t == &PyUnicode_Type)
        return enc_str(w, v);
    if (t == &PyLong_Type)
        return enc_int(w, v);
    if (t == &PyFloat_Type)
        return enc_float(w, v);
    if (t == &PyBytes_Type) {
        Py_ssize_t n = PyBytes_GET_SIZE(v);
        if (n > (Py_ssize_t)UINT32_MAX)
            return raise_unsupported();
        if (w_u8(w, TAG_BYTES) < 0 || w_u32(w, (uint32_t)n) < 0)
            return -1;
        return w_bytes(w, PyBytes_AS_STRING(v), n);
    }
    if (t == &PyByteArray_Type) {
        Py_ssize_t n = PyByteArray_GET_SIZE(v);
        if (n > (Py_ssize_t)UINT32_MAX)
            return raise_unsupported();
        if (w_u8(w, TAG_BYTES) < 0 || w_u32(w, (uint32_t)n) < 0)
            return -1;
        return w_bytes(w, PyByteArray_AS_STRING(v), n);
    }
    if (t == &PyDict_Type)
        return enc_dict(w, v, depth);
    if (t == &PyList_Type)
        return enc_sequence(w, v, TAG_LIST, depth);
    if (t == &PyTuple_Type)
        return enc_sequence(w, v, TAG_TUPLE, depth);
    if ((PyObject *)t == state.buffer_cls) {
        PyObject *arr = PyObject_GetAttr(v, state.str_array);
        int rc;
        if (arr == NULL)
            return -1;
        rc = (w_u8(w, TAG_BUFFER) < 0 || enc_array(w, arr) < 0) ? -1 : 0;
        Py_DECREF(arr);
        return rc;
    }
    if ((PyObject *)t == state.ndarray_cls) {
        if (w_u8(w, TAG_NDARRAY) < 0)
            return -1;
        return enc_array(w, v);
    }
    if ((PyObject *)t == state.vector_cls) {
        PyObject *items = PyObject_GetAttr(v, state.str_items);
        int rc;
        if (items == NULL)
            return -1;
        if (!PyList_CheckExact(items)) {
            Py_DECREF(items);
            return raise_unsupported();
        }
        rc = enc_sequence(w, items, TAG_VECTOR, depth);
        Py_DECREF(items);
        return rc;
    }
    /* memoryview, numpy scalars, subclasses, nested Tokens, anything
     * else: let the pure-Python visitor handle (or reject) it. */
    return raise_unsupported();
}

static PyObject *
wirec_encode_token(PyObject *self, PyObject *args)
{
    PyObject *name, *fields, *out;
    writer w = {NULL, 0, 0};
    (void)self;
    if (!state_ready) {
        PyErr_SetString(PyExc_RuntimeError, "_wirec.setup() not called");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "SO!:encode_token", &name,
                          &PyDict_Type, &fields))
        return NULL;
    if (PyBytes_GET_SIZE(name) > 0xFFFF) {
        PyErr_SetNone(state.unsupported);
        return NULL;
    }
    if (w_bytes(&w, "DPS2", 4) < 0 ||
        w_u16(&w, (uint16_t)PyBytes_GET_SIZE(name)) < 0 ||
        w_bytes(&w, PyBytes_AS_STRING(name), PyBytes_GET_SIZE(name)) < 0 ||
        enc_value(&w, fields, 0) < 0) {
        PyMem_Free(w.buf);
        return NULL;
    }
    /* A bytearray, not bytes: encode_segments documents its
     * single-segment whole-message tail as writable, and gather()
     * hands it over to the caller as-is. */
    out = PyByteArray_FromStringAndSize(w.buf, w.len);
    PyMem_Free(w.buf);
    return out;
}

/* ------------------------------------------------------------------ */
/* decode                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    const char *p;
    Py_ssize_t n;
    Py_ssize_t off;
    int copy;
    PyObject *src; /* the Python buffer object, for the array helper */
} reader;

static inline int
r_need(reader *r, Py_ssize_t k)
{
    if (r->n - r->off < k)
        return raise_unsupported(); /* pure path raises the real error */
    return 0;
}

static inline uint32_t
r_u32(reader *r)
{
    const unsigned char *b = (const unsigned char *)(r->p + r->off);
    r->off += 4;
    return (uint32_t)b[0] | ((uint32_t)b[1] << 8) | ((uint32_t)b[2] << 16) |
           ((uint32_t)b[3] << 24);
}

static inline uint16_t
r_u16(reader *r)
{
    const unsigned char *b = (const unsigned char *)(r->p + r->off);
    r->off += 2;
    return (uint16_t)(b[0] | (b[1] << 8));
}

static PyObject *dec_value(reader *r, int depth);

static PyObject *
dec_array(reader *r, int as_buffer)
{
    PyObject *res, *obj, *off_obj;
    Py_ssize_t new_off;
    res = PyObject_CallFunction(state.decode_array, "Onii", r->src, r->off,
                                r->copy, as_buffer);
    if (res == NULL)
        return NULL;
    if (!PyTuple_CheckExact(res) || PyTuple_GET_SIZE(res) != 2) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_TypeError,
                        "decode_array helper must return (obj, offset)");
        return NULL;
    }
    obj = PyTuple_GET_ITEM(res, 0);
    off_obj = PyTuple_GET_ITEM(res, 1);
    new_off = PyLong_AsSsize_t(off_obj);
    if (new_off == -1 && PyErr_Occurred()) {
        Py_DECREF(res);
        return NULL;
    }
    if (new_off < r->off || new_off > r->n) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_ValueError,
                        "decode_array helper returned a bad offset");
        return NULL;
    }
    r->off = new_off;
    Py_INCREF(obj);
    Py_DECREF(res);
    return obj;
}

static PyObject *
dec_value(reader *r, int depth)
{
    unsigned char tag;
    if (depth >= MAX_DEPTH) {
        raise_unsupported();
        return NULL;
    }
    depth += 1;
    if (r_need(r, 1) < 0)
        return NULL;
    tag = (unsigned char)r->p[r->off];
    r->off += 1;
    switch (tag) {
    case TAG_NONE:
        Py_RETURN_NONE;
    case TAG_FALSE:
        Py_RETURN_FALSE;
    case TAG_TRUE:
        Py_RETURN_TRUE;
    case TAG_INT64: {
        uint64_t u;
        int i;
        if (r_need(r, 8) < 0)
            return NULL;
        u = 0;
        for (i = 0; i < 8; i++)
            u |= (uint64_t)(unsigned char)r->p[r->off + i] << (8 * i);
        r->off += 8;
        return PyLong_FromLongLong((long long)u);
    }
    case TAG_FLOAT64: {
        union {
            double f;
            uint64_t u;
        } bits;
        int i;
        if (r_need(r, 8) < 0)
            return NULL;
        bits.u = 0;
        for (i = 0; i < 8; i++)
            bits.u |= (uint64_t)(unsigned char)r->p[r->off + i] << (8 * i);
        r->off += 8;
        return PyFloat_FromDouble(bits.f);
    }
    case TAG_STR: {
        uint32_t n;
        PyObject *s;
        if (r_need(r, 4) < 0)
            return NULL;
        n = r_u32(r);
        if (r_need(r, (Py_ssize_t)n) < 0)
            return NULL;
        s = PyUnicode_DecodeUTF8(r->p + r->off, (Py_ssize_t)n, NULL);
        r->off += (Py_ssize_t)n;
        return s;
    }
    case TAG_BYTES: {
        uint32_t n;
        PyObject *b;
        if (r_need(r, 4) < 0)
            return NULL;
        n = r_u32(r);
        if (r_need(r, (Py_ssize_t)n) < 0)
            return NULL;
        b = PyBytes_FromStringAndSize(r->p + r->off, (Py_ssize_t)n);
        r->off += (Py_ssize_t)n;
        return b;
    }
    case TAG_BIGINT: {
        uint32_t n;
        PyObject *s, *v;
        if (r_need(r, 4) < 0)
            return NULL;
        n = r_u32(r);
        if (r_need(r, (Py_ssize_t)n) < 0)
            return NULL;
        s = PyUnicode_DecodeASCII(r->p + r->off, (Py_ssize_t)n, NULL);
        if (s == NULL)
            return NULL;
        r->off += (Py_ssize_t)n;
        v = PyLong_FromUnicodeObject(s, 10);
        Py_DECREF(s);
        return v;
    }
    case TAG_NDARRAY:
        return dec_array(r, 0);
    case TAG_BUFFER:
        return dec_array(r, 1);
    case TAG_LIST:
    case TAG_TUPLE: {
        uint32_t n;
        Py_ssize_t i;
        PyObject *seq;
        if (r_need(r, 4) < 0)
            return NULL;
        n = r_u32(r);
        if ((Py_ssize_t)n > r->n - r->off) { /* >= 1 byte per element */
            raise_unsupported();
            return NULL;
        }
        seq = (tag == TAG_LIST) ? PyList_New((Py_ssize_t)n)
                                : PyTuple_New((Py_ssize_t)n);
        if (seq == NULL)
            return NULL;
        for (i = 0; i < (Py_ssize_t)n; i++) {
            PyObject *item = dec_value(r, depth);
            if (item == NULL) {
                Py_DECREF(seq);
                return NULL;
            }
            if (tag == TAG_LIST)
                PyList_SET_ITEM(seq, i, item);
            else
                PyTuple_SET_ITEM(seq, i, item);
        }
        return seq;
    }
    case TAG_VECTOR: {
        uint32_t n;
        Py_ssize_t i;
        PyObject *vec, *items;
        if (r_need(r, 4) < 0)
            return NULL;
        n = r_u32(r);
        if ((Py_ssize_t)n > r->n - r->off) {
            raise_unsupported();
            return NULL;
        }
        vec = PyObject_CallNoArgs(state.vector_cls);
        if (vec == NULL)
            return NULL;
        items = PyObject_GetAttr(vec, state.str_items);
        if (items == NULL || !PyList_CheckExact(items)) {
            Py_XDECREF(items);
            Py_DECREF(vec);
            if (!PyErr_Occurred())
                raise_unsupported();
            return NULL;
        }
        for (i = 0; i < (Py_ssize_t)n; i++) {
            PyObject *item = dec_value(r, depth);
            if (item == NULL || PyList_Append(items, item) < 0) {
                Py_XDECREF(item);
                Py_DECREF(items);
                Py_DECREF(vec);
                return NULL;
            }
            Py_DECREF(item);
        }
        Py_DECREF(items);
        return vec;
    }
    case TAG_DICT: {
        uint32_t n;
        Py_ssize_t i;
        PyObject *d;
        if (r_need(r, 4) < 0)
            return NULL;
        n = r_u32(r);
        if ((Py_ssize_t)n > (r->n - r->off) / 3) { /* >= 3 bytes/entry */
            raise_unsupported();
            return NULL;
        }
        d = PyDict_New();
        if (d == NULL)
            return NULL;
        for (i = 0; i < (Py_ssize_t)n; i++) {
            uint16_t klen;
            PyObject *key, *item;
            if (r_need(r, 2) < 0) {
                Py_DECREF(d);
                return NULL;
            }
            klen = r_u16(r);
            if (r_need(r, (Py_ssize_t)klen) < 0) {
                Py_DECREF(d);
                return NULL;
            }
            key = PyUnicode_DecodeUTF8(r->p + r->off, (Py_ssize_t)klen,
                                       NULL);
            if (key == NULL) {
                Py_DECREF(d);
                return NULL;
            }
            r->off += (Py_ssize_t)klen;
            item = dec_value(r, depth);
            if (item == NULL || PyDict_SetItem(d, key, item) < 0) {
                Py_DECREF(key);
                Py_XDECREF(item);
                Py_DECREF(d);
                return NULL;
            }
            Py_DECREF(key);
            Py_DECREF(item);
        }
        return d;
    }
    case TAG_TOKEN:
    default:
        /* Nested tokens need the registry; unknown tags need the
         * canonical WireError.  Both via the pure path. */
        raise_unsupported();
        return NULL;
    }
}

static PyObject *
wirec_decode_token(PyObject *self, PyObject *args)
{
    PyObject *src, *name, *fields, *out;
    int copy = 1;
    Py_buffer view;
    reader r;
    uint16_t name_len;
    (void)self;
    if (!state_ready) {
        PyErr_SetString(PyExc_RuntimeError, "_wirec.setup() not called");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O|p:decode_token", &src, &copy))
        return NULL;
    if (PyObject_GetBuffer(src, &view, PyBUF_SIMPLE) < 0) {
        /* Non-contiguous or exotic buffer: pure path handles it. */
        PyErr_Clear();
        PyErr_SetNone(state.unsupported);
        return NULL;
    }
    r.p = (const char *)view.buf;
    r.n = view.len;
    r.off = 0;
    r.copy = copy;
    r.src = src;
    if (r.n < 6 || memcmp(r.p, "DPS2", 4) != 0) {
        PyBuffer_Release(&view);
        PyErr_SetNone(state.unsupported); /* pure raises "bad magic" */
        return NULL;
    }
    r.off = 4;
    name_len = r_u16(&r);
    if (r.n - r.off < (Py_ssize_t)name_len) {
        PyBuffer_Release(&view);
        PyErr_SetNone(state.unsupported);
        return NULL;
    }
    name = PyUnicode_DecodeUTF8(r.p + r.off, (Py_ssize_t)name_len, NULL);
    if (name == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    r.off += (Py_ssize_t)name_len;
    fields = dec_value(&r, 0);
    if (fields == NULL) {
        Py_DECREF(name);
        PyBuffer_Release(&view);
        return NULL;
    }
    if (r.off != r.n) {
        /* Trailing garbage: the pure path raises the canonical error. */
        Py_DECREF(name);
        Py_DECREF(fields);
        PyBuffer_Release(&view);
        PyErr_SetNone(state.unsupported);
        return NULL;
    }
    PyBuffer_Release(&view);
    out = PyTuple_Pack(2, name, fields);
    Py_DECREF(name);
    Py_DECREF(fields);
    return out;
}

/* ------------------------------------------------------------------ */
/* setup / module def                                                 */
/* ------------------------------------------------------------------ */

static PyObject *
wirec_setup(PyObject *self, PyObject *args)
{
    PyObject *unsupported, *buffer_cls, *vector_cls, *ndarray_cls;
    PyObject *encode_array, *decode_array;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOO:setup", &unsupported, &buffer_cls,
                          &vector_cls, &ndarray_cls, &encode_array,
                          &decode_array))
        return NULL;
    Py_XSETREF(state.unsupported, Py_NewRef(unsupported));
    Py_XSETREF(state.buffer_cls, Py_NewRef(buffer_cls));
    Py_XSETREF(state.vector_cls, Py_NewRef(vector_cls));
    Py_XSETREF(state.ndarray_cls, Py_NewRef(ndarray_cls));
    Py_XSETREF(state.encode_array, Py_NewRef(encode_array));
    Py_XSETREF(state.decode_array, Py_NewRef(decode_array));
    if (state.str_items == NULL)
        state.str_items = PyUnicode_InternFromString("items");
    if (state.str_array == NULL)
        state.str_array = PyUnicode_InternFromString("array");
    if (state.str_items == NULL || state.str_array == NULL)
        return NULL;
    state_ready = 1;
    Py_RETURN_NONE;
}

static PyMethodDef wirec_methods[] = {
    {"setup", wirec_setup, METH_VARARGS,
     "setup(unsupported, Buffer, Vector, ndarray, encode_array, "
     "decode_array)"},
    {"encode_token", wirec_encode_token, METH_VARARGS,
     "encode_token(name_bytes, fields_dict) -> bytearray"},
    {"decode_token", wirec_decode_token, METH_VARARGS,
     "decode_token(buffer, copy=True) -> (name, fields)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef wirec_module = {
    PyModuleDef_HEAD_INIT,
    "repro.serial._wirec",
    "Compiled fast path for the DPS wire codec.",
    -1,
    wirec_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__wirec(void)
{
    return PyModule_Create(&wirec_module);
}

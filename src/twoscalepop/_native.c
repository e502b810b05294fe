/* Compiled stepping loop for the threestage maps H_k (and its limit H,
 * which has the same block-diagonal layout), reduced and local, built as
 * the CPython extension module twoscalepop._native_c.
 *
 * Each step repeats the Python float kernel's IEEE operations in the same
 * order, so the two give the same bytes; _native.py builds this file with
 * -O3 -ffp-contract=off, so that no product is fused behind our back, and
 * with no -ffast-math or -march, so that no operation is reordered and the
 * cached module suits any x86-64 CPU.  The one fused multiply-add is
 * explicit: rows 4-5 of the H_k dispersal product, which the Python kernel
 * forms with an exact fma of its own (threestage._fma).
 *
 * orbit runs aggregation.iterate_tail's whole repeat schedule up to the
 * tail in one call; advance runs plain, stored or checked stretches, many
 * one such stretch from each of a batch of starts, and step one step of an
 * array form.  All but step go through one inlined loop, specialised per
 * map kind so that its state has a constant length.  The loop keeps the
 * state, both saved states of the repeat schedule and the constants in
 * registers: a step hands back its image by value, the saved states are
 * held as bit patterns, and the caller's state is read once at entry and
 * written once at each exit.  orbit, advance and many release the GIL
 * around the loop.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { COMPLETE = 0, REDUCED = 1, LOCAL = 2 };
enum { RAN = 0, MATCHED_FIRST = 1, MATCHED_SECOND = 2, FAILS = 3, INADMISSIBLE = 4 };

/* a state; a map of three coordinates uses the first three */
typedef struct { double v[6]; } state;

/* a step's image, and whether the Python kernel admits the step */
typedef struct { state x; int ok; } image;

static inline uint64_t bits(double v)
{
    uint64_t u;
    memcpy(&u, &v, sizeof u);
    return u;
}

/* A x for the block-diagonal dispersal power A, packed as its twelve
 * structural nonzeros row by row */
static inline state dispersal(const double *restrict a, state x)
{
    state z = {{
        a[0] * x.v[0] + a[1] * x.v[1],
        a[2] * x.v[0] + a[3] * x.v[1],
        a[4] * x.v[2] + a[5] * x.v[3],
        a[6] * x.v[2] + a[7] * x.v[3],
        fma(a[8], x.v[4], a[9] * x.v[5]),
        fma(a[10], x.v[4], a[11] * x.v[5]),
    }};
    return z;
}

/* H_k: the dispersal product, then threestage._closed_form_demography with
 * constants (e1a e1b e2a e2b s2a s2b u2a u2b s3a s3b u3a u3b phi_a phi_b
 * c_a c_b d_a d_b) after the twelve matrix entries */
static inline image complete_step(const double *restrict p, state x)
{
    const double *restrict k = p + 12;
    image out = {{{0.0}}, 0};
    state z = dispersal(p, x);
    double den_fa = 1.0 + k[14] * z.v[2], den_ga = 1.0 + k[16] * z.v[2];
    double den_fb = 1.0 + k[15] * z.v[3], den_gb = 1.0 + k[17] * z.v[3];
    if (den_fa <= 0.0 || den_ga <= 0.0 || den_fb <= 0.0 || den_gb <= 0.0)
        return out;
    double f_a = k[12] * (1.0 / den_fa), g_a = 1.0 / den_ga;
    double f_b = k[13] * (1.0 / den_fb), g_b = 1.0 / den_gb;
    out.x.v[0] = (f_a * k[4]) / k[6] * z.v[2];
    out.x.v[1] = (f_b * k[5]) / k[7] * z.v[3];
    out.x.v[2] = k[0] * z.v[0] + (g_a * k[8]) / k[10] * z.v[4];
    out.x.v[3] = k[1] * z.v[1] + (g_b * k[9]) / k[11] * z.v[5];
    out.x.v[4] = k[2] * z.v[2] + ((1.0 - g_a) * k[8]) / k[10] * z.v[4];
    out.x.v[5] = k[3] * z.v[3] + ((1.0 - g_b) * k[9]) / k[11] * z.v[5];
    out.ok = 1;
    for (int i = 0; i < 6; i++)
        out.ok &= isfinite(out.x.v[i]) != 0;
    return out;
}

/* threestage.reduced_map: (s1 s2 s3 b w11 w12 slope11 slope12 w21 w22
 * slope21 slope22) */
static inline image reduced_step(const double *restrict p, state y)
{
    image out = {{{0.0}}, 0};
    double d11 = 1.0 + p[6] * y.v[1], d12 = 1.0 + p[7] * y.v[1];
    double d21 = 1.0 + p[10] * y.v[1], d22 = 1.0 + p[11] * y.v[1];
    if (d11 <= 0.0 || d12 <= 0.0 || d21 <= 0.0 || d22 <= 0.0)
        return out;
    double hh1 = p[4] * (1.0 / d11) + p[5] * (1.0 / d12);
    double hh2 = p[8] * (1.0 / d21) + p[9] * (1.0 / d22);
    out.x.v[0] = p[3] * hh1 * y.v[1];
    out.x.v[1] = p[0] * y.v[0] + p[2] * hh2 * y.v[2];
    out.x.v[2] = p[1] * y.v[1] + p[2] * (1.0 - hh2) * y.v[2];
    out.ok = 1;
    return out;
}

/* threestage.local_map: (s1 s2 s3 phi c d) */
static inline image local_step(const double *restrict p, state y)
{
    image out = {{{0.0}}, 0};
    double den_f = 1.0 + p[4] * y.v[1], den_g = 1.0 + p[5] * y.v[1];
    if (den_f <= 0.0 || den_g <= 0.0)
        return out;
    double f = p[3] * (1.0 / den_f), g = 1.0 / den_g;
    out.x.v[0] = p[1] * f * y.v[1];
    out.x.v[1] = p[0] * y.v[0] + p[2] * g * y.v[2];
    out.x.v[2] = p[1] * y.v[1] + p[2] * (1.0 - g) * y.v[2];
    out.ok = 1;
    return out;
}

/* One step of map `kind`; `kind` is a constant once inlined. */
static inline __attribute__((always_inline)) image
step_of(int kind, const double *restrict p, state s)
{
    return kind == COMPLETE ? complete_step(p, s)
         : kind == REDUCED ? reduced_step(p, s)
         : local_step(p, s);
}

/* End a run: write the state back to the caller's array and report. */
static inline __attribute__((always_inline)) int64_t
leave(double *restrict x, state s, int dim, int *status, int code, int64_t taken)
{
    for (int i = 0; i < dim; i++)
        x[i] = s.v[i];
    *status = code;
    return taken;
}

/* Step x by up to n steps of map `kind` with constants p; `dim` is the
 * state's length, a constant once inlined.  With `rows` non-NULL every new
 * state is stored there too.  With `bound` non-NULL the run is checked:
 * once stored, a state that is not finite, nonnegative and at most *bound
 * ends it with status INADMISSIBLE, before any comparison or further step.
 * With `period` non-NULL the run follows iterate_tail's repeat schedule:
 * each new state's bytes are compared with Brent's tortoise, saved at steps
 * 2^n - 1, then with the fine one, re-saved at step t + 1 + t / 16 after
 * each save at step t; both start as x, saved at step 0, and each save
 * follows the step's compares.  A tortoise is held as the bit patterns of
 * its coordinates, so a match is the bytes' match: -0.0 differs from 0.0,
 * and a NaN matches only the same bits.  A match ends the run with status
 * MATCHED_FIRST or MATCHED_SECOND and *period the steps since that save.
 * Returns the number of steps taken, sets *status and leaves in x the last
 * state reached.  FAILS means the next step is one the Python kernel
 * refuses (a pole denominator, a non-finite H_k image); x then holds the
 * state it would be applied to. */
static inline __attribute__((always_inline)) int64_t
run(int kind, int dim, const double *restrict p, double *restrict x, int64_t n,
    double *restrict rows, const double *restrict bound, int64_t *restrict period,
    int *restrict status)
{
    state s = {{0.0}};
    uint64_t brent[6] = {0}, fine[6] = {0};
    int64_t mark = 0, next_mark = 1, fine_mark = 0, next_fine = 1;
    double most = bound ? *bound : 0.0;
    for (int i = 0; i < dim; i++) {
        s.v[i] = x[i];
        brent[i] = fine[i] = bits(s.v[i]);
    }
    for (int64_t t = 0; t < n; t++) {
        image next = step_of(kind, p, s);
        if (!next.ok)
            return leave(x, s, dim, status, FAILS, t);
        s = next.x;
        if (rows)
            for (int i = 0; i < dim; i++)
                rows[t * dim + i] = s.v[i];
        if (bound) {
            int inside = 1;
            for (int i = 0; i < dim; i++)  /* NaN fails both */
                inside &= s.v[i] >= 0.0 && s.v[i] <= most;
            if (!inside)
                return leave(x, s, dim, status, INADMISSIBLE, t + 1);
        }
        if (period) {
            int64_t step = t + 1;
            uint64_t off_brent = 0, off_fine = 0;
            for (int i = 0; i < dim; i++) {
                off_brent |= bits(s.v[i]) ^ brent[i];
                off_fine |= bits(s.v[i]) ^ fine[i];
            }
            if (off_brent == 0) {
                *period = step - mark;
                return leave(x, s, dim, status, MATCHED_FIRST, step);
            }
            if (off_fine == 0) {
                *period = step - fine_mark;
                return leave(x, s, dim, status, MATCHED_SECOND, step);
            }
            if (step == next_mark) {
                mark = step;
                next_mark = 2 * step + 1;
                for (int i = 0; i < dim; i++)
                    brent[i] = bits(s.v[i]);
            }
            if (step == next_fine) {
                fine_mark = step;
                next_fine = step + 1 + step / 16;
                for (int i = 0; i < dim; i++)
                    fine[i] = bits(s.v[i]);
            }
        }
    }
    return leave(x, s, dim, status, RAN, n);
}

/* Step x by up to n steps, storing and checking as run() says. */
static int64_t advance(int kind, const double *p, double *x, int64_t n,
                       double *rows, const double *bound, int *status)
{
    switch (kind) {
    case COMPLETE: return run(COMPLETE, 6, p, x, n, rows, bound, NULL, status);
    case REDUCED: return run(REDUCED, 3, p, x, n, rows, bound, NULL, status);
    default: return run(LOCAL, 3, p, x, n, rows, bound, NULL, status);
    }
}

/* Step x toward step `first`, the tail's first row, under the repeat
 * schedule; stops at the first match or at `first`. */
static int64_t orbit(int kind, const double *p, double *x, int64_t first,
                     int64_t *period, int *status)
{
    switch (kind) {
    case COMPLETE: return run(COMPLETE, 6, p, x, first, NULL, NULL, period, status);
    case REDUCED: return run(REDUCED, 3, p, x, first, NULL, NULL, period, status);
    default: return run(LOCAL, 3, p, x, first, NULL, NULL, period, status);
    }
}

/* ---- the Python binding: argument parsing, the GIL and results ---- */

#define MAX_CONSTANTS 30  /* the longest constant table, H_k's */

static int arity(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* A map kind, its state length and its constant count (a ValueError for
 * an unknown kind), then its packed constants (immutable bytes of that
 * many doubles) copied into p. */
static int read_map(PyObject *kind_arg, PyObject *constants, int *kind, int *dim, double *p)
{
    static const int dims[] = {6, 3, 3}, counts[] = {30, 12, 6};
    long k = PyLong_AsLong(kind_arg);
    if (k == -1 && PyErr_Occurred())
        return -1;
    if (k < COMPLETE || k > LOCAL) {
        PyErr_SetString(PyExc_ValueError, "unknown map kind");
        return -1;
    }
    Py_ssize_t size = counts[k] * (Py_ssize_t)sizeof(double);
    if (!PyBytes_Check(constants) || PyBytes_GET_SIZE(constants) != size) {
        PyErr_SetString(PyExc_ValueError, "constants do not fit the map kind");
        return -1;
    }
    memcpy(p, PyBytes_AS_STRING(constants), size);
    *kind = (int)k;
    *dim = dims[k];
    return 0;
}

/* A state: a sequence of `dim` numbers. */
static int read_state(PyObject *arg, int dim, double *x)
{
    PyObject *seq = PySequence_Fast(arg, "a state must be a sequence of floats");
    if (seq == NULL)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(seq) == dim;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "a state of this map has %d coordinates", dim);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int i = 0; ok && i < dim; i++) {
        x[i] = PyFloat_AsDouble(items[i]);
        ok = !(x[i] == -1.0 && PyErr_Occurred());
    }
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

static PyObject *state_tuple(const double *x, int dim)
{
    PyObject *t = PyTuple_New(dim);
    for (int i = 0; t != NULL && i < dim; i++) {
        PyObject *v = PyFloat_FromDouble(x[i]);
        if (v == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* A step count: an integer in [0, 2**63 - 1], refused rather than wrapped. */
static int read_count(PyObject *arg, int64_t *n)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow != 0 || v < 0) {
        PyErr_SetString(PyExc_ValueError, "a step count must lie in [0, 2**63 - 1]");
        return -1;
    }
    *n = (int64_t)v;
    return 0;
}

/* None (an unchecked run: *use is NULL) or the admissible set's bound. */
static int read_bound(PyObject *arg, double *bound, const double **use)
{
    *use = NULL;
    if (arg == Py_None)
        return 0;
    *bound = PyFloat_AsDouble(arg);
    if (*bound == -1.0 && PyErr_Occurred())
        return -1;
    *use = bound;
    return 0;
}

/* A writable C-contiguous float64 buffer holding whole states of `dim`. */
static int write_buffer(PyObject *arg, int dim, Py_buffer *view)
{
    if (PyObject_GetBuffer(arg, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != sizeof(double) || view->format == NULL
        || strcmp(view->format, "d") != 0 || view->len % (dim * (Py_ssize_t)sizeof(double))) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "expected a C-contiguous float64 buffer of states "
                     "with %d coordinates", dim);
        return -1;
    }
    return 0;
}

static PyObject *py_orbit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS], x[6];
    int kind, dim, status;
    int64_t first, taken, period = 0;
    (void)self;
    if (arity(nargs, 4, "orbit") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0
        || read_state(args[2], dim, x) < 0 || read_count(args[3], &first) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    taken = orbit(kind, p, x, first, &period, &status);
    Py_END_ALLOW_THREADS
    PyObject *state = state_tuple(x, dim);
    if (state == NULL)
        return NULL;
    return Py_BuildValue("(NLiL)", state, (long long)taken, status, (long long)period);
}

static PyObject *py_advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS], x[6], bound;
    const double *checked;
    int kind, dim, status;
    int64_t n, taken;
    Py_buffer view = {0};
    double *rows = NULL;
    (void)self;
    if (arity(nargs, 6, "advance") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0
        || read_state(args[2], dim, x) < 0 || read_count(args[3], &n) < 0
        || read_bound(args[5], &bound, &checked) < 0)
        return NULL;
    if (args[4] != Py_None) {
        if (write_buffer(args[4], dim, &view) < 0)
            return NULL;
        if (n > view.len / (dim * (Py_ssize_t)sizeof(double))) {
            PyBuffer_Release(&view);
            PyErr_SetString(PyExc_ValueError, "rows hold fewer states than the steps");
            return NULL;
        }
        rows = view.buf;
    }
    Py_BEGIN_ALLOW_THREADS
    taken = advance(kind, p, x, n, rows, checked, &status);
    Py_END_ALLOW_THREADS
    if (rows != NULL)
        PyBuffer_Release(&view);
    PyObject *state = state_tuple(x, dim);
    if (state == NULL)
        return NULL;
    return Py_BuildValue("(NLi)", state, (long long)taken, status);
}

static PyObject *py_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS], bound;
    const double *checked;
    int kind, dim;
    int64_t n;
    Py_buffer view;
    (void)self;
    if (arity(nargs, 5, "many") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0
        || read_count(args[3], &n) < 0 || read_bound(args[4], &bound, &checked) < 0
        || write_buffer(args[2], dim, &view) < 0)
        return NULL;
    Py_ssize_t count = view.len / (dim * (Py_ssize_t)sizeof(double));
    char *failed = PyMem_Malloc(count > 0 ? count : 1);
    if (failed == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    double *xs = view.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < count; i++) {
        int status;
        advance(kind, p, xs + i * dim, n, NULL, checked, &status);
        failed[i] = status != RAN;
    }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    PyObject *rows = PyList_New(0);
    for (Py_ssize_t i = 0; rows != NULL && i < count; i++) {
        if (!failed[i])
            continue;
        PyObject *index = PyLong_FromSsize_t(i);
        if (index == NULL || PyList_Append(rows, index) < 0)
            Py_CLEAR(rows);
        Py_XDECREF(index);
    }
    PyMem_Free(failed);
    return rows;
}

static PyObject *py_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS];
    int kind, dim;
    Py_buffer in, out;
    (void)self;
    if (arity(nargs, 4, "step") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0)
        return NULL;
    /* only a 1-D C-contiguous float64 buffer of one state is read here */
    if (!PyObject_CheckBuffer(args[2]))
        Py_RETURN_FALSE;
    if (PyObject_GetBuffer(args[2], &in, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        Py_RETURN_FALSE;
    }
    int eligible = in.ndim == 1 && in.shape[0] == dim && in.itemsize == sizeof(double)
                   && in.format != NULL && strcmp(in.format, "d") == 0
                   && PyBuffer_IsContiguous(&in, 'C');
    state s = {{0.0}};
    if (eligible)
        memcpy(s.v, in.buf, dim * sizeof(double));
    PyBuffer_Release(&in);
    if (!eligible)
        Py_RETURN_FALSE;
    image next = step_of(kind, p, s);
    if (!next.ok)
        Py_RETURN_FALSE;
    if (write_buffer(args[3], dim, &out) < 0)
        return NULL;
    int fits = out.len == dim * (Py_ssize_t)sizeof(double);
    if (fits)
        memcpy(out.buf, next.x.v, dim * sizeof(double));
    PyBuffer_Release(&out);
    if (!fits) {
        PyErr_Format(PyExc_ValueError, "out must hold one state of %d coordinates", dim);
        return NULL;
    }
    Py_RETURN_TRUE;
}

static PyMethodDef methods[] = {
    {"orbit", (PyCFunction)(void (*)(void))py_orbit, METH_FASTCALL,
     "orbit(kind, constants, x, first) -> (state, taken, status, period)\n\n"
     "Run iterate_tail's repeat schedule from x toward step first."},
    {"advance", (PyCFunction)(void (*)(void))py_advance, METH_FASTCALL,
     "advance(kind, constants, x, n, rows, bound) -> (state, taken, status)\n\n"
     "Step x by up to n steps, storing each state in rows unless it is None\n"
     "and checking each against bound unless it is None."},
    {"many", (PyCFunction)(void (*)(void))py_many, METH_FASTCALL,
     "many(kind, constants, states, n, bound) -> rows\n\n"
     "Step each row of the float64 buffer states in place as advance does;\n"
     "returns the rows whose run did not end with status RAN."},
    {"step", (PyCFunction)(void (*)(void))py_step, METH_FASTCALL,
     "step(kind, constants, x, out) -> bool\n\n"
     "One step from x into out.  False, with out untouched, when x is not a\n"
     "1-D C-contiguous float64 buffer of one state or the step fails."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "twoscalepop._native_c",
    .m_doc = "Compiled stepping loop for the threestage maps; see _native.py.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__native_c(void)
{
    return PyModuleDef_Init(&module);
}

/* Compiled trajectory kernel and the exact table's binomial averaging.
 *
 * Trajectory semantics are identical to ``_trajectory_py``; see that module
 * for the reference loop.  ``simulate`` reads its uniforms from a caller's
 * array.  ``simulate_philox`` computes each uniform from its index in numpy's
 * Philox4x64-10 stream (Salmon et al., SC'11) when a trajectory reads it,
 * so it holds no uniforms beyond a 2 KiB stack batch at any n0: double i of
 * the stream keyed by (k0, k1) is lane i % 4 of the block at the counter
 * i / 4 + 1, mapped to [0, 1) as (x >> 11) * 2**-53, exactly as
 * ``Generator(Philox(key=k0 + 2**64 * k1)).random`` draws it.  The 64x64 ->
 * 128-bit multiply uses ``__uint128_t``, as numpy's Philox does on gcc and
 * clang; other compilers are not supported.
 *
 * The arrays arrive through the buffer protocol and are checked for dtype,
 * dimensions, contiguity, writability and size before any element is
 * touched.  The loop releases the GIL, so callers may split the trial axis
 * across threads.
 *
 * ``binomial_rows`` runs the survivor averaging of ``_exact_table`` in place,
 * one state's contiguous (row, slot) table after another, with the products
 * and sums of the numpy loop that the tests keep as its reference, so every
 * exact value keeps its bits.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Blocks filled per batch before counting: 64 blocks of 4 doubles. */
#define BATCH 64

typedef struct {
    uint64_t k0, k1;
    uint64_t block;  /* index of the block held in ``last``; UINT64_MAX: none */
    double last[4];
} stream;

/* Writes the four doubles of Philox4x64-10 block ``b`` to ``dst``. */
static void
philox_block(uint64_t k0, uint64_t k1, uint64_t b, double *dst)
{
    uint64_t c0 = b + 1, c1 = 0, c2 = 0, c3 = 0;
    __uint128_t p0, p1;
    int r;

    for (r = 0; r < 10; r++) {
        if (r) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
        p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    dst[0] = (double)(c0 >> 11) * 0x1.0p-53;
    dst[1] = (double)(c1 >> 11) * 0x1.0p-53;
    dst[2] = (double)(c2 >> 11) * 0x1.0p-53;
    dst[3] = (double)(c3 >> 11) * 0x1.0p-53;
}

/* Number of stream doubles start .. start + h - 1 below p.  The last block
 * read stays in ``s``: the next round, and sometimes the next trial, starts
 * inside it. */
static Py_ssize_t
count_below(stream *s, uint64_t start, Py_ssize_t h, double p)
{
    double buf[4 * BATCH];
    uint64_t end = start + (uint64_t)h, first, stop, b, lo, hi, k;
    Py_ssize_t j = 0;

    while (start < end) {
        first = start / 4;
        stop = (end - 1) / 4 + 1;
        if (stop - first > BATCH)
            stop = first + BATCH;
        for (b = first; b < stop; b++) {
            if (b == s->block)
                memcpy(buf + 4 * (b - first), s->last, sizeof s->last);
            else
                philox_block(s->k0, s->k1, b, buf + 4 * (b - first));
        }
        s->block = stop - 1;
        memcpy(s->last, buf + 4 * (stop - 1 - first), sizeof s->last);
        lo = start - 4 * first;
        hi = 4 * (stop - first);
        if (end - 4 * first < hi)
            hi = end - 4 * first;
        for (k = lo; k < hi; k++)
            if (buf[k] < p)
                j++;
        start = 4 * first + hi;
    }
    return j;
}

/* One trajectory on n pairs.  Round uniforms come from ``row`` when it is
 * given, else from ``s`` at stream index ``base`` onwards. */
static double
one(const double *row, stream *s, uint64_t base, Py_ssize_t n,
    const double *psucc, const double *fid, int backup_enabled,
    int stop_at_two, double failure_fidelity, unsigned char *failed)
{
    Py_ssize_t off = 0, depth = 0, backup = -1, h, j, k;
    double p;

    *failed = 0;
    for (;;) {
        if (n == 0) {
            if (backup >= 0)
                return fid[backup];
            *failed = 1;
            return failure_fidelity;
        }
        if (n == 1)
            return fid[depth];
        if (n == 2 && backup < 0 && stop_at_two)
            return fid[depth];
        if (n % 2) {
            if (backup_enabled)
                backup = depth;
            n -= 1;
        }
        h = n / 2;
        p = psucc[depth];
        if (row == NULL)
            j = count_below(s, base + (uint64_t)off, h, p);
        else
            /* the branch is about 30% faster than `j += row[off + k] < p`
             * at large n */
            for (j = 0, k = 0; k < h; k++)
                if (row[off + k] < p)
                    j++;
        off += h;
        n = j;
        depth += 1;
    }
}

/* Fills ``view`` with a C-contiguous buffer of ``ndim`` dimensions whose
 * items have struct format ``format``; on failure sets an exception and
 * leaves nothing to release. */
static int
get_array(PyObject *obj, Py_buffer *view, const char *name, int ndim,
          const char *format, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;

    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != ndim || strcmp(view->format, format) != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a %d-d array of format '%s', got %d-d '%s'",
                     name, ndim, format, view->ndim, view->format);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Checks the buffers and runs one trajectory per trial: per row of
 * ``u_obj``, or, when it is NULL, per entry of ``out`` on the stream ``s``
 * from trial ``first_trial`` on. */
static PyObject *
run(PyObject *u_obj, stream *s, Py_ssize_t first_trial, Py_ssize_t n0,
    PyObject *psucc_obj, PyObject *fid_obj, int backup_enabled,
    int stop_at_two, double failure_fidelity, PyObject *out_obj,
    PyObject *failed_obj)
{
    Py_buffer u, psucc, fid, out, failed;
    Py_ssize_t trials, width, t, depth_count;
    PyObject *result = NULL;

    if (n0 < 0) {
        PyErr_Format(PyExc_ValueError, "n0 must be >= 0, got %zd", n0);
        return NULL;
    }
    if (first_trial < 0) {
        PyErr_Format(PyExc_ValueError, "first_trial must be >= 0, got %zd",
                     first_trial);
        return NULL;
    }
    if (u_obj != NULL && get_array(u_obj, &u, "u", 2, "d", 0) < 0)
        return NULL;
    if (get_array(psucc_obj, &psucc, "psucc", 1, "d", 0) < 0)
        goto release_u;
    if (get_array(fid_obj, &fid, "fid", 1, "d", 0) < 0)
        goto release_psucc;
    if (get_array(out_obj, &out, "out", 1, "d", 1) < 0)
        goto release_fid;
    if (get_array(failed_obj, &failed, "failed", 1, "B", 1) < 0)
        goto release_out;

    trials = u_obj != NULL ? u.shape[0] : out.shape[0];
    width = u_obj != NULL ? u.shape[1] : n0;
    /* a trajectory on n0 pairs uses fewer than n0 uniforms and reaches
     * depth at most floor(log2(n0)) */
    for (depth_count = 1; (n0 >> depth_count) > 0; depth_count++)
        ;
    if (width < n0)
        PyErr_Format(PyExc_ValueError,
                     "u has %zd columns, fewer than n0 = %zd", width, n0);
    else if (psucc.shape[0] < depth_count || fid.shape[0] < depth_count)
        PyErr_Format(PyExc_ValueError,
                     "psucc and fid need %zd depths for n0 = %zd, got %zd and %zd",
                     depth_count, n0, psucc.shape[0], fid.shape[0]);
    else if (out.shape[0] != trials || failed.shape[0] != trials)
        PyErr_Format(PyExc_ValueError,
                     "out and failed need %zd entries, got %zd and %zd",
                     trials, out.shape[0], failed.shape[0]);
    else if (u_obj == NULL && n0 > 0
             && (uint64_t)first_trial + (uint64_t)trials > UINT64_MAX / (uint64_t)n0)
        PyErr_Format(PyExc_ValueError,
                     "stream index (first_trial + trials) * n0 = (%zd + %zd) * %zd "
                     "does not fit in 64 bits",
                     first_trial, trials, n0);
    else {
        const double *rows = u_obj != NULL ? u.buf : NULL;
        const double *ps = psucc.buf, *fs = fid.buf;
        double *o = out.buf;
        unsigned char *fl = failed.buf;

        Py_BEGIN_ALLOW_THREADS
        for (t = 0; t < trials; t++)
            o[t] = one(rows != NULL ? rows + t * width : NULL, s,
                       ((uint64_t)first_trial + (uint64_t)t) * (uint64_t)n0,
                       n0, ps, fs, backup_enabled, stop_at_two,
                       failure_fidelity, fl + t);
        Py_END_ALLOW_THREADS
        result = Py_NewRef(Py_None);
    }

    PyBuffer_Release(&failed);
release_out:
    PyBuffer_Release(&out);
release_fid:
    PyBuffer_Release(&fid);
release_psucc:
    PyBuffer_Release(&psucc);
release_u:
    if (u_obj != NULL)
        PyBuffer_Release(&u);
    return result;
}

PyDoc_STRVAR(simulate_doc,
"simulate(u, n0, psucc, fid, backup_enabled, stop_at_two, failure_fidelity,\n"
"         out, failed)\n"
"--\n\n"
"Fill ``out``/``failed`` with one trajectory per row of ``u``.");

static PyObject *
simulate(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "u", "n0", "psucc", "fid", "backup_enabled", "stop_at_two",
        "failure_fidelity", "out", "failed", NULL};
    PyObject *u_obj, *psucc_obj, *fid_obj, *out_obj, *failed_obj;
    Py_ssize_t n0;
    int backup_enabled, stop_at_two;
    double failure_fidelity;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OnOOppdOO:simulate", keywords, &u_obj, &n0,
            &psucc_obj, &fid_obj, &backup_enabled, &stop_at_two,
            &failure_fidelity, &out_obj, &failed_obj))
        return NULL;
    return run(u_obj, NULL, 0, n0, psucc_obj, fid_obj, backup_enabled,
               stop_at_two, failure_fidelity, out_obj, failed_obj);
}

/* "O&" converter: an integer in [0, 2**64) to a uint64_t. */
static int
to_u64(PyObject *obj, void *addr)
{
    PyObject *index = PyNumber_Index(obj);
    unsigned long long value;

    if (index == NULL)
        return 0;
    value = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    if (value == (unsigned long long)-1 && PyErr_Occurred())
        return 0;
    *(uint64_t *)addr = value;
    return 1;
}

PyDoc_STRVAR(simulate_philox_doc,
"simulate_philox(k0, k1, first_trial, n0, psucc, fid, backup_enabled,\n"
"                stop_at_two, failure_fidelity, out, failed)\n"
"--\n\n"
"Fill ``out``/``failed`` with trials ``first_trial``, ``first_trial + 1``,\n"
"...; trial t reads doubles ``t * n0`` onwards of the Philox stream keyed by\n"
"``(k0, k1)``.");

static PyObject *
simulate_philox(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "k0", "k1", "first_trial", "n0", "psucc", "fid", "backup_enabled",
        "stop_at_two", "failure_fidelity", "out", "failed", NULL};
    PyObject *psucc_obj, *fid_obj, *out_obj, *failed_obj;
    Py_ssize_t first_trial, n0;
    int backup_enabled, stop_at_two;
    double failure_fidelity;
    stream s = {.block = UINT64_MAX};

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O&O&nnOOppdOO:simulate_philox", keywords,
            to_u64, &s.k0, to_u64, &s.k1, &first_trial, &n0, &psucc_obj,
            &fid_obj, &backup_enabled, &stop_at_two, &failure_fidelity,
            &out_obj, &failed_obj))
        return NULL;
    return run(NULL, &s, first_trial, n0, psucc_obj, fid_obj, backup_enabled,
               stop_at_two, failure_fidelity, out_obj, failed_obj);
}

/* ``steps`` binomial averaging steps in place on one state's ``rows`` x ``m``
 * table ``w``; row 0 of step s goes to row s - 1 of ``after``.  Each element
 * is two products and their sum, in the order of the numpy loop it replaces;
 * setup.py turns off FMA contraction, which would round them once. */
static void
binomial_steps(double *restrict w, Py_ssize_t rows, Py_ssize_t m, double p,
               double *restrict after, Py_ssize_t steps)
{
    const double q = 1.0 - p;
    Py_ssize_t step, end, i;

    for (step = 1; step <= steps; step++) {
        end = (rows - step) * m;
        for (i = 0; i < end; i++)
            w[i] = q * w[i] + p * w[i + m];
        memcpy(after + (step - 1) * m, w, (size_t)m * sizeof *w);
    }
}

/* Whether the buffers of ``a`` and ``b`` share a byte. */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    return (char *)a->buf < (char *)b->buf + b->len
           && (char *)b->buf < (char *)a->buf + a->len;
}

PyDoc_STRVAR(binomial_rows_doc,
"binomial_rows(w, p, after)\n"
"--\n\n"
"For each state j and s = 1 .. after.shape[1], set\n"
"``w[j, i] = (1 - p[j]) * w[j, i] + p[j] * w[j, i + 1]`` for the first\n"
"w.shape[1] - s rows and copy row 0 of ``w[j]`` to ``after[j, s - 1]``.");

static PyObject *
binomial_rows(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"w", "p", "after", NULL};
    PyObject *w_obj, *p_obj, *after_obj, *result = NULL;
    Py_buffer w, p, after;
    Py_ssize_t k, rows, m, steps, j;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:binomial_rows",
                                     keywords, &w_obj, &p_obj, &after_obj))
        return NULL;
    if (get_array(w_obj, &w, "w", 3, "d", 1) < 0)
        return NULL;
    if (get_array(p_obj, &p, "p", 1, "d", 0) < 0)
        goto release_w;
    if (get_array(after_obj, &after, "after", 3, "d", 1) < 0)
        goto release_p;

    k = w.shape[0];
    rows = w.shape[1];
    m = w.shape[2];
    steps = after.shape[1];
    if (p.shape[0] != k || after.shape[0] != k)
        PyErr_Format(PyExc_ValueError,
                     "w, p and after need the same states, got %zd, %zd and %zd",
                     k, p.shape[0], after.shape[0]);
    else if (after.shape[2] != m)
        PyErr_Format(PyExc_ValueError,
                     "w and after need the same slots, got %zd and %zd",
                     m, after.shape[2]);
    else if (steps >= rows)
        PyErr_Format(PyExc_ValueError,
                     "after needs fewer rows than w, got %zd and %zd",
                     steps, rows);
    else if (overlap(&w, &after) || overlap(&p, &w) || overlap(&p, &after))
        PyErr_SetString(PyExc_ValueError, "w, p and after must not overlap");
    else {
        const double *ps = p.buf;

        Py_BEGIN_ALLOW_THREADS
        for (j = 0; j < k; j++)
            binomial_steps((double *)w.buf + j * rows * m, rows, m, ps[j],
                           (double *)after.buf + j * steps * m, steps);
        Py_END_ALLOW_THREADS
        result = Py_NewRef(Py_None);
    }

    PyBuffer_Release(&after);
release_p:
    PyBuffer_Release(&p);
release_w:
    PyBuffer_Release(&w);
    return result;
}

static PyMethodDef methods[] = {
    {"simulate", (PyCFunction)(void (*)(void))simulate,
     METH_VARARGS | METH_KEYWORDS, simulate_doc},
    {"simulate_philox", (PyCFunction)(void (*)(void))simulate_philox,
     METH_VARARGS | METH_KEYWORDS, simulate_philox_doc},
    {"binomial_rows", (PyCFunction)(void (*)(void))binomial_rows,
     METH_VARARGS | METH_KEYWORDS, binomial_rows_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "belldistil._trajectory_c",
    "Compiled trajectory kernel and the exact table's binomial averaging.",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__trajectory_c(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddStringConstant(m, "IMPL", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}

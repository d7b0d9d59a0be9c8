/* Compiled trajectory kernel.
 *
 * Semantics are identical to ``_trajectory_py.simulate``; see that module
 * for the reference loop.  The arrays arrive through the buffer protocol and
 * are checked for dtype, dimensions, contiguity, writability and size before
 * any element is touched.  The loop releases the GIL, so callers may split
 * the trial axis across threads.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static double
one(const double *row, Py_ssize_t n, const double *psucc, const double *fid,
    int backup_enabled, int stop_at_two, double failure_fidelity,
    unsigned char *failed)
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
        j = 0;
        /* the branch is about 30% faster than `j += row[off + k] < p` at
         * large n */
        for (k = 0; k < h; k++)
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
    Py_buffer u, psucc, fid, out, failed;
    Py_ssize_t n0, trials, width, t, depth_count;
    int backup_enabled, stop_at_two;
    double failure_fidelity;
    PyObject *result = NULL;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OnOOppdOO:simulate", keywords, &u_obj, &n0,
            &psucc_obj, &fid_obj, &backup_enabled, &stop_at_two,
            &failure_fidelity, &out_obj, &failed_obj))
        return NULL;
    if (n0 < 0) {
        PyErr_Format(PyExc_ValueError, "n0 must be >= 0, got %zd", n0);
        return NULL;
    }
    if (get_array(u_obj, &u, "u", 2, "d", 0) < 0)
        return NULL;
    if (get_array(psucc_obj, &psucc, "psucc", 1, "d", 0) < 0)
        goto release_u;
    if (get_array(fid_obj, &fid, "fid", 1, "d", 0) < 0)
        goto release_psucc;
    if (get_array(out_obj, &out, "out", 1, "d", 1) < 0)
        goto release_fid;
    if (get_array(failed_obj, &failed, "failed", 1, "B", 1) < 0)
        goto release_out;

    trials = u.shape[0];
    width = u.shape[1];
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
    else {
        const double *rows = u.buf, *ps = psucc.buf, *fs = fid.buf;
        double *o = out.buf;
        unsigned char *fl = failed.buf;

        Py_BEGIN_ALLOW_THREADS
        for (t = 0; t < trials; t++)
            o[t] = one(rows + t * width, n0, ps, fs, backup_enabled,
                       stop_at_two, failure_fidelity, fl + t);
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
    PyBuffer_Release(&u);
    return result;
}

static PyMethodDef methods[] = {
    {"simulate", (PyCFunction)(void (*)(void))simulate,
     METH_VARARGS | METH_KEYWORDS, simulate_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "belldistil._trajectory_c",
    "Compiled trajectory kernel; see ``_trajectory_py`` for the reference loop.",
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

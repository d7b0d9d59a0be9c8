/* Compiled trajectory kernel, the exact expectation's backward induction,
 * and the CSV writer and logarithm of the CLI tables.
 *
 * Trajectory semantics are identical to ``_trajectory_py``; see that module
 * for the reference loop.  ``simulate`` reads its uniforms from a caller's
 * array.  ``simulate_philox`` computes each uniform from its index in numpy's
 * Philox4x64-10 stream (Salmon et al., SC'11) when a trajectory reads it,
 * so it holds no uniforms beyond one cached block at any n0: double i of
 * the stream keyed by (k0, k1) is lane i % 4 of the block at the counter
 * i / 4 + 1, mapped to [0, 1) as (x >> 11) * 2**-53, exactly as
 * ``Generator(Philox(key=k0 + 2**64 * k1)).random`` draws it.  A round
 * compares the integer x >> 11 with one integer threshold instead, which
 * counts the same lanes, and counts each block that it reads whole from
 * registers.  The 64x64 -> 128-bit multiply uses ``__uint128_t``, as
 * numpy's Philox does on gcc and clang; other compilers are not supported.
 * ``simulate_philox`` tallies the trials per output depth in place of a
 * per-trial failure flag.
 *
 * Philox blocks are independent, so a run of 18 or more whole blocks goes
 * to ``count_whole_blocks`` where the CPU runs AVX-512: it computes 18
 * blocks per step, two vectors of eight (each 64x64 -> 128-bit multiply as
 * four 32x32 -> 64-bit ones) and two scalar blocks in the same rounds, and
 * counts the lanes below the threshold from registers.  It is built with
 * GCC 12 or later on x86-64 ELF, and chosen once, at module load, when the
 * CPU reports x86-64-v4 (AVX-512 F, BW, CD, DQ and VL).  On every other CPU
 * or build, and for heads, tails and shorter runs, the scalar loop computes
 * the blocks one at a time.  Both give the same integer words, so the same
 * bits; the module's ``PHILOX`` says which path runs, "avx512" or "scalar",
 * for the Philox and for the averaging loop of the induction below.
 *
 * The arrays arrive through the buffer protocol and are checked for dtype,
 * dimensions, contiguity, writability and size before any element is
 * touched.  The loops of the kernel and the induction release the GIL, so
 * callers may split the trial axis across threads.
 *
 * ``exact_expectations`` runs the backward induction of ``_exact_table``
 * one state after another, on two tables of O(n) doubles that it allocates
 * once per call, and writes only the requested counts.  It averages only
 * the backup slots that the requested counts read: one slot at every depth
 * without backups, and at depth 0 only the parities of the counts.  Each
 * slot is averaged on its own, so leaving one out moves no bit of the
 * others, and the products and sums are those of the numpy loop that the
 * tests keep as its reference: every exact value keeps its bits.  Where
 * the Philox runs in AVX-512, so does the averaging loop: ``average_avx512``
 * takes 16 entries per step on tables that start on 64-byte lines, and
 * ``binomial_steps`` runs the plain loop everywhere else.  The bits hold in
 * both: each vector lane is multiplied and added as the scalar code does
 * it, with no FMA, and -ffp-contract=off keeps the plain loop from fusing
 * them.
 *
 * Near purity the averaging drives table entries below DBL_MIN, and every
 * subnormal operand or result costs the CPU a microcode assist.  On x86-64
 * the induction therefore sets flush-to-zero and denormals-are-zero in
 * MXCSR once it has released the GIL, and restores MXCSR before it takes
 * the GIL back.  MXCSR belongs to the thread, so no other thread and no
 * later Python arithmetic sees the mode.  An entry that would fall below
 * DBL_MIN reads 0.  An output is one minus an average of entries, far
 * above DBL_MIN wherever it differs from 1, and every output that the
 * tests pin or compare with the numpy loop keeps its bits.  Other targets
 * keep subnormals and run slower.
 *
 * ``format_table`` writes a float table as the CLI's CSV text in one call,
 * each cell byte for byte the text of Python's format(x, '.12g'): a cell
 * whose 12-digit mantissa one rounded product determines beyond doubt is
 * written in fixed point here, and every other cell by
 * PyOS_double_to_string, the routine that format itself calls.
 * ``log_each`` gives ``n_min`` the bits of math.log for a whole column: it
 * calls the same libm ``log`` as math.log, and raises ValueError for the
 * inputs for which math.log does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#ifdef __x86_64__
#include <xmmintrin.h>
#endif

/* The AVX-512 paths of the Philox (``count_whole_blocks``) and of the
 * averaging loop (``average_avx512``), built with GCC 12 or later on x86-64
 * ELF and chosen once, at module load, when the CPU reports x86-64-v4 (see
 * the top of the file). */
#if defined(__x86_64__) && defined(__ELF__) && !defined(__clang__) \
    && defined(__GNUC__) && __GNUC__ >= 12
#define AVX512 __attribute__((target("arch=x86-64-v4")))
#include <immintrin.h>
#endif

/* Each averaging function starts a 64-byte line, so its inner loop keeps
 * its place in the cache lines whatever the code before it: when an edit of
 * the Monte Carlo kernel moved the AVX-512 loop across a line, the exact
 * expectation ran about 3% slower. */
#define AVERAGING __attribute__((aligned(64), noinline))

/* Philox4x64-10's multipliers and the Weyl increments of its key. */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

typedef struct {
    uint64_t k0, k1;
    uint64_t block;  /* index of the block held in ``last``; UINT64_MAX: none */
    uint64_t last[4];
} stream;

/* One Philox4x64 round on the counter words ``c`` under the round key
 * (k0, k1). */
static inline void
philox_round(uint64_t c[4], uint64_t k0, uint64_t k1)
{
    const __uint128_t p0 = (__uint128_t)PHILOX_M0 * c[0],
                      p1 = (__uint128_t)PHILOX_M1 * c[2];

    c[0] = (uint64_t)(p1 >> 64) ^ c[1] ^ k0;
    c[1] = (uint64_t)p1;
    c[2] = (uint64_t)(p0 >> 64) ^ c[3] ^ k1;
    c[3] = (uint64_t)p0;
}

/* Writes the four words of Philox4x64-10 block ``b`` to ``x``. */
static void
philox_block(uint64_t k0, uint64_t k1, uint64_t b, uint64_t x[4])
{
    int r;

    x[0] = b + 1;
    x[1] = x[2] = x[3] = 0;
    for (r = 0; r < 10; r++) {
        if (r) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        philox_round(x, k0, k1);
    }
}

/* The integer t with (x >> 11) * 2**-53 < p exactly when (x >> 11) < t:
 * ceil(p * 2**53), which scaling by a power of two computes exactly; 0 for
 * p <= 0 or NaN, 2**53 for p >= 1. */
static uint64_t
threshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return (uint64_t)1 << 53;
    return (uint64_t)ceil(p * 0x1.0p53);
}

/* Number of lanes lo .. hi - 1 of block ``b`` below the threshold ``t``.
 * The block stays in ``s``: the next round, and sometimes the next trial,
 * starts inside it. */
static Py_ssize_t
count_cached(stream *s, uint64_t b, unsigned lo, unsigned hi, uint64_t t)
{
    Py_ssize_t j = 0;

    if (b != s->block) {
        philox_block(s->k0, s->k1, b, s->last);
        s->block = b;
    }
    for (; lo < hi; lo++)
        j += (s->last[lo] >> 11) < t;
    return j;
}

/* Number of the four words of ``x`` whose top 53 bits are below ``t``. */
static inline Py_ssize_t
words_below(const uint64_t x[4], uint64_t t)
{
    return ((x[0] >> 11) < t) + ((x[1] >> 11) < t)
           + ((x[2] >> 11) < t) + ((x[3] >> 11) < t);
}

#ifdef AVX512
/* Whether the CPU runs ``count_whole_blocks`` and ``average_avx512``; set
 * once, at module load. */
static int cpu_avx512;

/* The high words of the eight 128-bit products x * m, with their low words
 * in ``lo``: m's 32-bit halves ``ml`` and ``mh`` (in the low half of each
 * lane) times x's, four 32 x 32 -> 64-bit multiplies, and the carries of
 * the two middle terms, which cannot overflow a lane. */
AVX512 static inline __m512i
mul_wide(__m512i x, __m512i ml, __m512i mh, __m512i *lo)
{
    const __m512i xh = _mm512_srli_epi64(x, 32),
                  ll = _mm512_mul_epu32(x, ml), lh = _mm512_mul_epu32(x, mh),
                  hl = _mm512_mul_epu32(xh, ml), hh = _mm512_mul_epu32(xh, mh),
                  mid1 = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32)),
                  mid2 = _mm512_add_epi64(
                      lh, _mm512_and_si512(mid1, _mm512_set1_epi64(0xFFFFFFFF)));

    /* the odd 32-bit halves of the low word from mid2, the even from ll */
    *lo = _mm512_mask_blend_epi32(0xAAAA, ll, _mm512_slli_epi64(mid2, 32));
    return _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(mid1, 32)),
                            _mm512_srli_epi64(mid2, 32));
}

/* One Philox4x64 round on eight blocks, word i of block l in lane l of
 * c[i], under the round key (k0, k1) in every lane. */
AVX512 static inline void
philox_round8(__m512i c[4], __m512i k0, __m512i k1)
{
    __m512i lo0, lo1;
    const __m512i hi0 = mul_wide(c[0], _mm512_set1_epi64(PHILOX_M0 & 0xFFFFFFFF),
                                 _mm512_set1_epi64(PHILOX_M0 >> 32), &lo0),
                  hi1 = mul_wide(c[2], _mm512_set1_epi64(PHILOX_M1 & 0xFFFFFFFF),
                                 _mm512_set1_epi64(PHILOX_M1 >> 32), &lo1);

    c[0] = _mm512_ternarylogic_epi64(hi1, c[1], k0, 0x96);  /* three-way xor */
    c[1] = lo1;
    c[2] = _mm512_ternarylogic_epi64(hi0, c[3], k1, 0x96);
    c[3] = lo0;
}

/* The counters of blocks b .. b + 7 in c[0], and zero words. */
AVX512 static inline void
start8(__m512i c[4], uint64_t b)
{
    c[0] = _mm512_add_epi64(_mm512_set1_epi64((long long)b),
                            _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1));
    c[1] = c[2] = c[3] = _mm512_setzero_si512();
}

/* Number of the 32 words of eight blocks whose top 53 bits are below the
 * threshold in every lane of ``t``. */
AVX512 static inline Py_ssize_t
lanes_below(const __m512i c[4], __m512i t)
{
    Py_ssize_t j = 0;
    int i;

    for (i = 0; i < 4; i++)
        j += __builtin_popcount(
            _mm512_cmplt_epu64_mask(_mm512_srli_epi64(c[i], 11), t));
    return j;
}

/* Number of words below ``t`` in the whole blocks *b .. end - 1 (18 or
 * more), from registers.  A step computes 18 blocks: two vectors of eight
 * and two scalar blocks in the same rounds, which keeps both the vector and
 * the scalar multipliers busy.  Then one vector step takes eight blocks
 * while eight remain.  Advances *b past the counted blocks, leaving fewer
 * than eight. */
AVX512 static Py_ssize_t
count_whole_blocks(uint64_t k0, uint64_t k1, uint64_t *bp, uint64_t end,
                   uint64_t t)
{
    const __m512i tv = _mm512_set1_epi64((long long)t);
    uint64_t rk0[10], rk1[10], x[4], y[4], b = *bp;
    __m512i u[4], v[4], q0, q1;
    Py_ssize_t j = 0;
    int r;

    for (r = 0; r < 10; r++) {  /* the round keys, once per call */
        rk0[r] = k0 + (uint64_t)r * PHILOX_W0;
        rk1[r] = k1 + (uint64_t)r * PHILOX_W1;
    }
    for (; b + 18 <= end; b += 18) {
        start8(u, b);
        start8(v, b + 8);
        x[0] = b + 17;
        y[0] = b + 18;
        x[1] = x[2] = x[3] = y[1] = y[2] = y[3] = 0;
        /* unrolled, the step ran n0 = 8192 about 4% faster */
#pragma GCC unroll 10
        for (r = 0; r < 10; r++) {
            q0 = _mm512_set1_epi64((long long)rk0[r]);
            q1 = _mm512_set1_epi64((long long)rk1[r]);
            philox_round8(u, q0, q1);
            philox_round8(v, q0, q1);
            philox_round(x, rk0[r], rk1[r]);
            philox_round(y, rk0[r], rk1[r]);
        }
        j += lanes_below(u, tv) + lanes_below(v, tv)
             + words_below(x, t) + words_below(y, t);
    }
    for (; b + 8 <= end; b += 8) {
        start8(u, b);
        for (r = 0; r < 10; r++)
            philox_round8(u, _mm512_set1_epi64((long long)rk0[r]),
                          _mm512_set1_epi64((long long)rk1[r]));
        j += lanes_below(u, tv);
    }
    *bp = b;
    return j;
}

/* One averaging step of ``binomial_steps`` in AVX-512 lanes: w[i] becomes
 * q * w[i] + p * w[i + m] for i < end, with q = 1 - p and ``w`` on a
 * 64-byte line.  A step of the loop takes 16 entries, with aligned loads
 * and stores of w[i] and unaligned loads of w[i + m]; the last 0 .. 15
 * entries go through masked 8-lane loads and stores.  Each lane multiplies
 * twice and adds once, with no FMA, so it rounds as the scalar line does.
 * Every load reads entries i + m > i before any store of that step writes
 * entry i, as the ascending scalar loop does. */
AVX512 AVERAGING static void
average_avx512(double *restrict w, Py_ssize_t m, double p, Py_ssize_t end)
{
    const __m512d pv = _mm512_set1_pd(p), qv = _mm512_set1_pd(1.0 - p);
    Py_ssize_t i;

    for (i = 0; i + 16 <= end; i += 16) {
        const __m512d lo = _mm512_add_pd(
                          _mm512_mul_pd(qv, _mm512_load_pd(w + i)),
                          _mm512_mul_pd(pv, _mm512_loadu_pd(w + i + m))),
                      hi = _mm512_add_pd(
                          _mm512_mul_pd(qv, _mm512_load_pd(w + i + 8)),
                          _mm512_mul_pd(pv, _mm512_loadu_pd(w + i + 8 + m)));

        _mm512_store_pd(w + i, lo);
        _mm512_store_pd(w + i + 8, hi);
    }
    for (; i < end; i += 8) {
        /* the lanes below end, all eight when 8 or more remain */
        const __mmask8 k = (__mmask8)_bzhi_u32(0xFF, (unsigned)(end - i));

        _mm512_mask_store_pd(
            w + i, k,
            _mm512_add_pd(_mm512_mul_pd(qv, _mm512_maskz_load_pd(k, w + i)),
                          _mm512_mul_pd(pv, _mm512_maskz_loadu_pd(k, w + i + m))));
    }
}
#endif

/* Number of stream doubles start .. start + h - 1 below p.  Whole blocks
 * are counted from registers, a run of 18 or more by ``count_whole_blocks``
 * when the CPU runs it; a block that is only partly read goes through the
 * cache in ``s``. */
static Py_ssize_t
count_below(stream *s, uint64_t start, Py_ssize_t h, double p)
{
    const uint64_t t = threshold(p), end = start + (uint64_t)h;
    uint64_t b = start / 4, x[4];
    Py_ssize_t j = 0;

    if (start % 4) {
        j += count_cached(s, b, start % 4,
                          end - 4 * b < 4 ? (unsigned)(end - 4 * b) : 4, t);
        b++;
    }
#ifdef AVX512
    if (cpu_avx512 && b + 18 <= end / 4)
        j += count_whole_blocks(s->k0, s->k1, &b, end / 4, t);
#endif
    for (; b < end / 4; b++) {
        philox_block(s->k0, s->k1, b, x);
        j += words_below(x, t);
    }
    if (b == end / 4 && end % 4)
        j += count_cached(s, b, 0, end % 4, t);
    return j;
}

/* One trajectory on n pairs; returns the depth whose fidelity it outputs,
 * or -1 when it fails.  Round uniforms come from ``row`` when it is given,
 * else from ``s`` at stream index ``base`` onwards. */
static Py_ssize_t
one(const double *row, stream *s, uint64_t base, Py_ssize_t n,
    const double *psucc, int backup_enabled, int stop_at_two)
{
    Py_ssize_t off = 0, depth = 0, backup = -1, h, j, k;
    double p;

    for (;;) {
        if (n == 0)
            return backup;
        if (n == 1)
            return depth;
        if (n == 2 && backup < 0 && stop_at_two)
            return depth;
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

/* The struct format of numpy's int64 arrays. */
#define INT64_FORMAT (sizeof(long) == 8 ? "l" : "q")

/* Checks the buffers and runs one trajectory per trial: per row of
 * ``u_obj``, or, when it is NULL, per entry of ``out`` on the stream ``s``
 * from trial ``first_trial`` on.  Each trial writes its output to ``out``
 * and, with ``u_obj``, its failure flag to ``tally_obj``; without it, it
 * adds one to the entry of ``tally_obj`` for its output depth, or to the
 * last entry when it fails. */
static PyObject *
run(PyObject *u_obj, stream *s, Py_ssize_t first_trial, Py_ssize_t n0,
    PyObject *psucc_obj, PyObject *fid_obj, int backup_enabled,
    int stop_at_two, double failure_fidelity, PyObject *out_obj,
    PyObject *tally_obj)
{
    Py_buffer u, psucc, fid, out, tally;
    Py_ssize_t trials, width, t, k, depth_count;
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
    if (get_array(tally_obj, &tally, u_obj != NULL ? "failed" : "counts", 1,
                  u_obj != NULL ? "B" : INT64_FORMAT, 1) < 0)
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
    else if (u_obj != NULL
             && (out.shape[0] != trials || tally.shape[0] != trials))
        PyErr_Format(PyExc_ValueError,
                     "out and failed need %zd entries, got %zd and %zd",
                     trials, out.shape[0], tally.shape[0]);
    else if (u_obj == NULL && tally.shape[0] != depth_count + 1)
        PyErr_Format(PyExc_ValueError,
                     "counts needs %zd entries for n0 = %zd, got %zd",
                     depth_count + 1, n0, tally.shape[0]);
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
        unsigned char *fl = u_obj != NULL ? tally.buf : NULL;
        int64_t *cs = u_obj != NULL ? NULL : tally.buf;

        Py_BEGIN_ALLOW_THREADS
        for (t = 0; t < trials; t++) {
            k = one(rows != NULL ? rows + t * width : NULL, s,
                    ((uint64_t)first_trial + (uint64_t)t) * (uint64_t)n0,
                    n0, ps, backup_enabled, stop_at_two);
            o[t] = k >= 0 ? fs[k] : failure_fidelity;
            if (cs != NULL)
                cs[k >= 0 ? k : depth_count]++;
            else
                fl[t] = k < 0;
        }
        Py_END_ALLOW_THREADS
        result = Py_NewRef(Py_None);
    }

    PyBuffer_Release(&tally);
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
"                stop_at_two, failure_fidelity, out, counts)\n"
"--\n\n"
"Fill ``out`` with trials ``first_trial``, ``first_trial + 1``, ...; trial t\n"
"reads doubles ``t * n0`` onwards of the Philox stream keyed by\n"
"``(k0, k1)``.  Each trial adds one to ``counts[k]`` when it outputs\n"
"``fid[k]``, or to ``counts[-1]`` when it fails; ``counts`` is int64 with\n"
"floor(log2(n0)) + 2 entries.");

static PyObject *
simulate_philox(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "k0", "k1", "first_trial", "n0", "psucc", "fid", "backup_enabled",
        "stop_at_two", "failure_fidelity", "out", "counts", NULL};
    PyObject *psucc_obj, *fid_obj, *out_obj, *counts_obj;
    Py_ssize_t first_trial, n0;
    int backup_enabled, stop_at_two;
    double failure_fidelity;
    stream s = {.block = UINT64_MAX};

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O&O&nnOOppdOO:simulate_philox", keywords,
            to_u64, &s.k0, to_u64, &s.k1, &first_trial, &n0, &psucc_obj,
            &fid_obj, &backup_enabled, &stop_at_two, &failure_fidelity,
            &out_obj, &counts_obj))
        return NULL;
    return run(NULL, &s, first_trial, n0, psucc_obj, fid_obj, backup_enabled,
               stop_at_two, failure_fidelity, out_obj, counts_obj);
}

/* The rows of depth d's table whose counts are 2s and 2s + 1 average the
 * deeper table ``w`` (top / 2 + 1 rows of ``m`` slots) over the survivors
 * of s steps: Binomial(s, p) of them is row 0 of ``(q + p * shift)**s``
 * applied to ``w``, and step s leaves that row in row 0 of ``w``.  Row 2s of
 * the ``mv``-slot table ``v`` takes the first ``mv`` slots of it; row
 * 2s + 1 stores one pair at this depth, in the last slot of ``w``, or
 * discards it and takes the same slots.  Each element is two products and
 * their sum, in the order of the numpy loop that the tests keep as its
 * reference; setup.py turns off FMA contraction, which would round them
 * once. */
AVERAGING static void
binomial_steps(double *restrict w, Py_ssize_t m, double p, Py_ssize_t top,
               double *restrict v, Py_ssize_t mv, int backup_enabled)
{
    const double q = 1.0 - p;
    const Py_ssize_t rows = top / 2 + 1;
    Py_ssize_t step, end, i;
    double *row;

    for (step = 1; 2 * step <= top; step++) {
        end = (rows - step) * m;
#ifdef AVX512
        if (cpu_avx512)
            average_avx512(w, m, p, end);
        else
#endif
            for (i = 0; i < end; i++)
                w[i] = q * w[i] + p * w[i + m];
        row = v + 2 * step * mv;
        memcpy(row, w, (size_t)mv * sizeof *w);
        if (2 * step + 1 > top)
            break;
        row += mv;
        if (backup_enabled)
            for (i = 0; i < mv; i++)
                row[i] = w[m - 1];
        else
            memcpy(row, w, (size_t)mv * sizeof *w);
    }
}

/* Depths and slots past any count a Py_ssize_t holds. */
#define MAX_DEPTHS 64

/* The columns of one call's tables, the same for every state.  A column
 * holds one backup slot: 0 for none, k + 1 for a backup stored at depth k.
 * The table at depth d holds rows 0 .. n >> d and, at d >= 1, the slots
 * ``slot[0 .. width[d] - 1]``: the ones that some row at depth d - 1 reads.
 * At depth 0 it holds slot 0 alone. */
typedef struct {
    Py_ssize_t n, depth_cap;
    Py_ssize_t slot[MAX_DEPTHS], width[MAX_DEPTHS];
    int backup_enabled, stop_at_two;
    double failure_loss;
} plan;

/* The doubles of a 64-byte line.  Each table starts on one, and the
 * scratch of a call ends with one line of slack. */
#define LINE 8

/* Lays out ``pl`` for counts up to ``pl->n`` of the parities given: an even
 * count reads slot 0 at depth 1, an odd one (3 or more) the slot of a backup
 * stored at depth 0, or slot 0 when backups are off.  Returns the doubles
 * of the largest table rounded up to whole lines, or -1 when two such
 * tables, a line to align them and a line of slack would not fit in
 * PY_SSIZE_T_MAX bytes. */
static Py_ssize_t
lay_out(plan *pl, int has_even, int has_odd)
{
    const Py_ssize_t limit =
        PY_SSIZE_T_MAX / (Py_ssize_t)(2 * sizeof(double)) - 2 * LINE;
    Py_ssize_t d, m = 0, size = 0, entries;

    for (pl->depth_cap = 0; pl->n >> (pl->depth_cap + 1); pl->depth_cap++)
        ;
    if (has_even || (has_odd && !pl->backup_enabled))
        pl->slot[m++] = 0;
    if (has_odd && pl->backup_enabled)
        pl->slot[m++] = 1;
    pl->width[0] = 1;
    for (d = 1; d <= pl->depth_cap; d++) {
        pl->width[d] = m;
        /* an odd count of 3 or more at depth d stores a backup there */
        if (pl->backup_enabled && (pl->n >> d) >= 3)
            pl->slot[m++] = d + 1;
    }
    for (d = 0; d <= pl->depth_cap; d++) {
        if ((pl->n >> d) >= limit / pl->width[d])
            return -1;
        entries = ((pl->n >> d) + 1) * pl->width[d];
        if (entries > size)
            size = entries;
    }
    return (size + LINE - 1) / LINE * LINE;
}

/* One state's backward induction over depth, on the tables ``a`` and ``b``
 * in turn; ``fid`` and ``psucc`` are its depth tables, ``stride`` doubles
 * apart.  Returns its table at depth 0.  A table holds one minus the
 * expectation on entering a depth: averaging the small infidelity instead
 * of the fidelity keeps the rounding of the branch averages relative to
 * it. */
static const double *
induction(const plan *pl, const double *fid, const double *psucc,
          Py_ssize_t stride, double *a, double *b)
{
    double loss[MAX_DEPTHS], *swap;
    Py_ssize_t d, i, mv, slot;

    for (d = 0; d <= pl->depth_cap; d++)
        loss[d] = 1.0 - fid[d * stride];
    for (d = pl->depth_cap; d >= 0; d--) {
        mv = pl->width[d];
        for (i = 0; i < mv; i++) {
            slot = d > 0 ? pl->slot[i] : 0;
            b[i] = slot == 0 ? pl->failure_loss : loss[slot - 1];
            b[mv + i] = loss[d];
        }
        if (d < pl->depth_cap) {
            binomial_steps(a, pl->width[d + 1], psucc[d * stride],
                           pl->n >> d, b, mv, pl->backup_enabled);
            if (pl->stop_at_two && (d == 0 || pl->slot[0] == 0))
                b[2 * mv] = loss[d];
        }
        swap = a;
        a = b;
        b = swap;
    }
    return a;
}

/* Whether the buffers of ``a`` and ``b`` share a byte. */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    return (char *)a->buf < (char *)b->buf + b->len
           && (char *)b->buf < (char *)a->buf + a->len;
}

PyDoc_STRVAR(exact_expectations_doc,
"exact_expectations(fid, psucc, counts, backup_enabled, stop_at_two,\n"
"                   failure_fidelity, out)\n"
"--\n\n"
"Set ``out[j, i]`` to the exact expected fidelity of the state whose depth\n"
"tables are column j of ``fid`` and ``psucc`` on ``counts[i]`` pairs.");

static PyObject *
exact_expectations(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "fid", "psucc", "counts", "backup_enabled", "stop_at_two",
        "failure_fidelity", "out", NULL};
    PyObject *fid_obj, *psucc_obj, *counts_obj, *out_obj, *result = NULL;
    Py_buffer fid, psucc, counts, out;
    plan pl = {.n = 1};
    Py_ssize_t states, ncounts, size, i, j;
    double failure_fidelity;
    void *raw;
    int has_even = 0, has_odd = 0;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOppdO:exact_expectations", keywords, &fid_obj,
            &psucc_obj, &counts_obj, &pl.backup_enabled, &pl.stop_at_two,
            &failure_fidelity, &out_obj))
        return NULL;
    pl.failure_loss = 1.0 - failure_fidelity;
    if (get_array(fid_obj, &fid, "fid", 2, "d", 0) < 0)
        return NULL;
    if (get_array(psucc_obj, &psucc, "psucc", 2, "d", 0) < 0)
        goto release_fid;
    if (get_array(counts_obj, &counts, "counts", 1, INT64_FORMAT, 0) < 0)
        goto release_psucc;
    if (get_array(out_obj, &out, "out", 2, "d", 1) < 0)
        goto release_counts;

    states = fid.shape[1];
    ncounts = counts.shape[0];
    for (i = 0; i < ncounts; i++) {
        int64_t c = ((const int64_t *)counts.buf)[i];

        if (c < 1) {
            PyErr_Format(PyExc_ValueError, "counts must be >= 1, got %lld",
                         (long long)c);
            goto release_out;
        }
        if (c > pl.n)
            pl.n = (Py_ssize_t)c;
        has_even |= c % 2 == 0;
        has_odd |= c % 2 == 1 && c >= 3;
    }
    size = lay_out(&pl, has_even, has_odd);
    if (psucc.shape[0] != fid.shape[0] || psucc.shape[1] != states)
        PyErr_Format(PyExc_ValueError,
                     "fid and psucc need the same shape, got (%zd, %zd) and (%zd, %zd)",
                     fid.shape[0], states, psucc.shape[0], psucc.shape[1]);
    else if (fid.shape[0] <= pl.depth_cap)
        PyErr_Format(PyExc_ValueError,
                     "fid and psucc need %zd depths for n = %zd, got %zd",
                     pl.depth_cap + 1, pl.n, fid.shape[0]);
    else if (out.shape[0] != states || out.shape[1] != ncounts)
        PyErr_Format(PyExc_ValueError,
                     "out needs shape (%zd, %zd), got (%zd, %zd)",
                     states, ncounts, out.shape[0], out.shape[1]);
    else if (overlap(&out, &fid) || overlap(&out, &psucc)
             || overlap(&out, &counts))
        PyErr_SetString(PyExc_ValueError,
                        "out must not overlap fid, psucc or counts");
    else if (size < 0
             || (raw = PyMem_Malloc((2 * (size_t)size + 2 * LINE) * sizeof(double)))
                    == NULL)
        PyErr_NoMemory();
    else {
        /* both tables on 64-byte lines, for the aligned loads and stores of
         * ``average_avx512`` */
        double *scratch = (double *)(((uintptr_t)raw + 63) & ~(uintptr_t)63);
        const double *fs = fid.buf, *ps = psucc.buf, *table;
        const int64_t *cs = counts.buf;
        double *o = out.buf;
#ifdef __x86_64__
        unsigned int csr;
#endif

        Py_BEGIN_ALLOW_THREADS
#ifdef __x86_64__
        /* flush-to-zero and denormals-are-zero for this thread's SSE and
         * AVX arithmetic until the GIL is taken back (see the top of the
         * file) */
        csr = _mm_getcsr();
        _mm_setcsr(csr | 0x8040);
#endif
        for (j = 0; j < states; j++) {
            table = induction(&pl, fs + j, ps + j, states, scratch,
                              scratch + size);
            for (i = 0; i < ncounts; i++)
                o[j * ncounts + i] = 1.0 - table[cs[i]];
        }
#ifdef __x86_64__
        _mm_setcsr(csr);
#endif
        Py_END_ALLOW_THREADS
        PyMem_Free(raw);
        result = Py_NewRef(Py_None);
    }

release_out:
    PyBuffer_Release(&out);
release_counts:
    PyBuffer_Release(&counts);
release_psucc:
    PyBuffer_Release(&psucc);
release_fid:
    PyBuffer_Release(&fid);
    return result;
}

/* 10**-4 .. 10**15: the thresholds 10**(e + 1) that find a cell's decimal
 * exponent e, and the scales 10**(11 - e), every one of them exact. */
static const double POW10[] = {
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
    1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

/* Room for one cell: the longest '%.12g' text, "-1.23456789012e-308", takes
 * 19 bytes. */
#define CELL_MAX 32

/* Writes the text of format(x, '.12g') at ``p`` and returns its end, or
 * NULL with an exception set.  For 1e-4 <= |x| < 1e11, p = |x| * 10**(11 - e)
 * is rounded once; when it lies more than 2**-12 (two of its ulps) from a
 * half-integer, floor(p + 0.5) is the correctly rounded 12-digit mantissa of
 * |x|, which '%.12g' writes in fixed point with its trailing zeros stripped,
 * provided it has 12 digits (a wrong e gives 11 or 13).  Every other cell,
 * and every near tie, goes through PyOS_double_to_string, the routine that
 * '%.12g' % x and format(x, '.12g') call. */
static char *
format_cell(char *p, double x)
{
    const double ax = fabs(x);
    double scaled;
    int64_t d;
    char digits[16], *text;
    int e, lead, point, end, i;
    size_t len;

    if (ax >= 1e-4 && ax < 1e11) {
        for (e = -4; ax >= POW10[e + 5]; e++)  /* POW10[15] = 1e11 > ax */
            ;
        scaled = ax * POW10[15 - e];
        d = (int64_t)floor(scaled + 0.5);
        if (fabs(scaled - floor(scaled) - 0.5) > 0x1p-12
            && d >= 100000000000LL && d < 1000000000000LL) {
            /* the mantissa after -e zeros when e < 0, so that the point
             * always follows digit max(e, 0) */
            lead = e < 0 ? -e : 0;
            memset(digits, '0', (size_t)lead);
            for (i = lead + 11; i >= lead; i--, d /= 10)
                digits[i] = (char)('0' + d % 10);
            for (end = lead + 12; digits[end - 1] == '0'; end--)
                ;
            point = e < 0 ? 1 : e + 1;
            if (x < 0)
                *p++ = '-';
            memcpy(p, digits, (size_t)point);
            p += point;
            if (end > point) {
                *p++ = '.';
                memcpy(p, digits + point, (size_t)(end - point));
                p += end - point;
            }
            return p;
        }
    }
    if ((text = PyOS_double_to_string(x, 'g', 12, 0, NULL)) == NULL)
        return NULL;
    len = strlen(text);
    memcpy(p, text, len);
    PyMem_Free(text);
    return p + len;
}

PyDoc_STRVAR(format_table_doc,
"format_table(table)\n"
"--\n\n"
"The CSV text of a C-contiguous 2-d float64 ``table``: each row's cells\n"
"joined by ``,`` and ended by a newline.  A cell holds the text of\n"
"``format(x, '.12g')``, or nothing where x is NaN.");

static PyObject *
format_table(PyObject *self, PyObject *table_obj)
{
    Py_buffer table;
    Py_ssize_t rows, cols, per_row, r, c;
    const double *cell;
    char *buf = NULL, *p;
    PyObject *result = NULL;

    if (get_array(table_obj, &table, "table", 2, "d", 0) < 0)
        return NULL;
    rows = table.shape[0];
    cols = table.shape[1];
    /* each cell with the comma or newline after it, and the newline of a row
     * of no cells */
    per_row = cols < PY_SSIZE_T_MAX / (2 * (CELL_MAX + 1))
              ? cols * (CELL_MAX + 1) + 1 : PY_SSIZE_T_MAX;
    if (rows <= (PY_SSIZE_T_MAX - 1) / per_row)
        buf = PyMem_Malloc((size_t)(rows * per_row + 1));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto release;
    }
    p = buf;
    cell = table.buf;
    for (r = 0; r < rows; r++) {
        for (c = 0; c < cols; c++, cell++) {
            if (c)
                *p++ = ',';
            if (!isnan(*cell) && (p = format_cell(p, *cell)) == NULL)
                goto free;
        }
        *p++ = '\n';
    }
    result = PyUnicode_DecodeASCII(buf, p - buf, NULL);
free:
    PyMem_Free(buf);
release:
    PyBuffer_Release(&table);
    return result;
}

PyDoc_STRVAR(log_each_doc,
"log_each(x, out)\n"
"--\n\n"
"Set ``out[i]`` to ``math.log(x[i])`` for 1-d float64 arrays of one size\n"
"that do not overlap.  Raises ``ValueError`` as ``math.log`` does, for\n"
"zero, negative and -inf values, and then writes nothing.");

static PyObject *
log_each(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"x", "out", NULL};
    PyObject *x_obj, *out_obj, *result = NULL;
    Py_buffer x, out;
    Py_ssize_t i;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:log_each", keywords,
                                     &x_obj, &out_obj))
        return NULL;
    if (get_array(x_obj, &x, "x", 1, "d", 0) < 0)
        return NULL;
    if (get_array(out_obj, &out, "out", 1, "d", 1) < 0)
        goto release_x;

    if (out.shape[0] != x.shape[0])
        PyErr_Format(PyExc_ValueError, "out needs %zd entries, got %zd",
                     x.shape[0], out.shape[0]);
    else if (overlap(&out, &x))
        PyErr_SetString(PyExc_ValueError, "out must not overlap x");
    else {
        const double *xs = x.buf;
        double *o = out.buf;

        /* math.log's own test: a finite result from a finite input, or a NaN
         * from a NaN */
        for (i = 0; i < x.shape[0]; i++)
            if (!(xs[i] > 0.0) && !isnan(xs[i]))
                break;
        if (i < x.shape[0])
            PyErr_SetString(PyExc_ValueError, "math domain error");
        else {
            /* the libm log that math.log calls */
            for (i = 0; i < x.shape[0]; i++)
                o[i] = log(xs[i]);
            result = Py_NewRef(Py_None);
        }
    }

    PyBuffer_Release(&out);
release_x:
    PyBuffer_Release(&x);
    return result;
}

static PyMethodDef methods[] = {
    {"simulate", (PyCFunction)(void (*)(void))simulate,
     METH_VARARGS | METH_KEYWORDS, simulate_doc},
    {"simulate_philox", (PyCFunction)(void (*)(void))simulate_philox,
     METH_VARARGS | METH_KEYWORDS, simulate_philox_doc},
    {"exact_expectations", (PyCFunction)(void (*)(void))exact_expectations,
     METH_VARARGS | METH_KEYWORDS, exact_expectations_doc},
    {"format_table", format_table, METH_O, format_table_doc},
    {"log_each", (PyCFunction)(void (*)(void))log_each,
     METH_VARARGS | METH_KEYWORDS, log_each_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "belldistil._trajectory_c",
    "Compiled trajectory kernel, the exact expectation's backward induction,\n"
    "and the CSV writer and logarithm of the CLI tables.",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__trajectory_c(void)
{
    PyObject *m = PyModule_Create(&module);
    const char *philox = "scalar";

#ifdef AVX512
    __builtin_cpu_init();
    cpu_avx512 = __builtin_cpu_supports("x86-64-v4");
    if (cpu_avx512)
        philox = "avx512";
#endif
    if (m != NULL && (PyModule_AddStringConstant(m, "IMPL", "compiled") < 0
                      || PyModule_AddStringConstant(m, "PHILOX", philox) < 0))
        Py_CLEAR(m);
    return m;
}
